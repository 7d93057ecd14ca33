package core

import (
	"math"

	"sstar/internal/sparse"
)

// RefineResult reports the outcome of iterative refinement.
type RefineResult struct {
	Iterations int
	// Berr is the final componentwise backward error
	// max_i |Ax-b|_i / (|A||x| + |b|)_i (the Oettli–Prager measure).
	Berr float64
	// Converged is true when Berr fell below the requested tolerance.
	Converged bool
}

// Refine improves a computed solution x of A x = b by classical iterative
// refinement with the existing factors: r = b − A x, solve A d = r,
// x += d, until the componentwise backward error stops improving, reaches
// tol, or maxIter is hit. x is updated in place.
func (f *Factorization) Refine(a *sparse.CSR, x, b []float64, tol float64, maxIter int) RefineResult {
	if maxIter <= 0 {
		maxIter = 5
	}
	if tol <= 0 {
		tol = 1e-14
	}
	n := a.N
	r := make([]float64, n)
	res := RefineResult{Berr: backwardError(a, x, b, r)}
	for res.Iterations = 0; res.Iterations < maxIter; {
		if res.Berr <= tol {
			res.Converged = true
			return res
		}
		d := f.Solve(r)
		for i := range x {
			x[i] += d[i]
		}
		res.Iterations++
		prev := res.Berr
		res.Berr = backwardError(a, x, b, r)
		if res.Berr >= prev/2 {
			// Stagnation: no further digits to gain at this precision.
			res.Converged = res.Berr <= tol
			return res
		}
	}
	res.Converged = res.Berr <= tol
	return res
}

// backwardError computes the Oettli–Prager componentwise backward error and
// leaves the residual b − A x in r.
func backwardError(a *sparse.CSR, x, b, r []float64) float64 {
	berr := 0.0
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		ax, axAbs := 0.0, 0.0
		for k, j := range cols {
			ax += float64(vals[k] * x[j])
			axAbs += math.Abs(vals[k] * x[j])
		}
		r[i] = b[i] - ax
		den := axAbs + math.Abs(b[i])
		if den > 0 {
			if e := math.Abs(r[i]) / den; e > berr {
				berr = e
			}
		} else if r[i] != 0 {
			berr = math.Inf(1)
		}
	}
	return berr
}

// CondEst estimates the 1-norm condition number κ₁(A) = ‖A‖₁‖A⁻¹‖₁ using
// Hager's algorithm (the LAPACK xLACON scheme): ‖A⁻¹‖₁ is estimated from a
// few solves with A and Aᵀ.
func (f *Factorization) CondEst(a *sparse.CSR) float64 {
	n := a.N
	// ‖A‖₁ = max column sum.
	colSum := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			colSum[j] += math.Abs(vals[k])
		}
	}
	norm1 := 0.0
	for _, s := range colSum {
		norm1 = math.Max(norm1, s)
	}
	// Hager iteration for ‖A⁻¹‖₁.
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < 5; iter++ {
		y := f.Solve(x) // y = A⁻¹ x
		newEst := 0.0
		for _, v := range y {
			newEst += math.Abs(v)
		}
		if iter > 0 && newEst <= est {
			break
		}
		est = newEst
		// ξ = sign(y); z = A⁻ᵀ ξ.
		xi := make([]float64, n)
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z := f.SolveTranspose(xi)
		// Next x = e_j with j = argmax |z_j|; stop when |z|_∞ <= zᵀx.
		jmax, zmax := 0, 0.0
		for i, v := range z {
			if av := math.Abs(v); av > zmax {
				jmax, zmax = i, av
			}
		}
		dot := 0.0
		for i := range z {
			dot += float64(z[i] * x[i])
		}
		if zmax <= dot {
			break
		}
		clear(x)
		x[jmax] = 1
	}
	return norm1 * est
}

// Equilibrate computes row and column scalings (powers-of-two free simple
// scaling) r_i = 1/max_j|a_ij| and c_j = 1/max_i |r_i a_ij|, returning the
// scaled matrix R·A·C together with the scale vectors. Solving A x = b then
// proceeds as: factorize RAC, solve (RAC) y = R b, x = C y.
func Equilibrate(a *sparse.CSR) (scaled *sparse.CSR, rowScale, colScale []float64) {
	n := a.N
	rowScale = make([]float64, n)
	colScale = make([]float64, a.M)
	for i := 0; i < n; i++ {
		_, vals := a.Row(i)
		m := MaxAbs(vals)
		if m == 0 {
			rowScale[i] = 1
		} else {
			rowScale[i] = 1 / m
		}
	}
	clear(colScale)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			colScale[j] = math.Max(colScale[j], math.Abs(rowScale[i]*vals[k]))
		}
	}
	for j := range colScale {
		if colScale[j] == 0 {
			colScale[j] = 1
		} else {
			colScale[j] = 1 / colScale[j]
		}
	}
	scaled = a.Clone()
	for i := 0; i < n; i++ {
		cols, vals := scaled.Row(i)
		for k, j := range cols {
			vals[k] = rowScale[i] * vals[k] * colScale[j]
		}
	}
	return scaled, rowScale, colScale
}
