package core

import (
	"fmt"
	"math"

	"sstar/internal/xblas"
)

// solveManyLoneBelow is the width below which SolveMany runs one Solve per
// column: on the service's small-panel grids the panel sweep's extra passes
// (zeroing, negating, subtracting the accumulators) cost more there than
// streaming the factors once per column. From it up the sweep beat w lone
// solves on every measured matrix (DESIGN.md, "Multi-RHS solve").
const solveManyLoneBelow = 4

// SolveMany solves A X = B for nrhs right-hand sides stored column-major in b
// (b[j*n:(j+1)*n] is column j). Column j of the result is bitwise Solve of
// column j alone, at every width; only a NaN's sign bit is outside that
// contract (the sweep negates values, and a NaN's sign is the hardware's
// choice).
//
// It is Solve's sweep over a row-major n × w working panel, every block
// product on xblas.MulSub with the w columns as lanes, so each factor entry
// is read once per call instead of once per column. Solve's order is kept
// element by element:
//
//   - the unit-lower diagonal block goes in MulSub strips of four rows plus
//     single rows, each row taking the rows above it in ascending order —
//     TrsvLowerUnit's sequence;
//   - Solve sums an L or U block row's dot from +0 and then subtracts it,
//     while MulSub subtracts in place. So the block products run from a
//     zeroed accumulator against the negated operand rows and the
//     accumulator is subtracted after: round(a·(−y)) = −round(a·y) and
//     c − (−p) is c + p in IEEE 754, so the accumulator is Dot's sum bit for
//     bit, signed zeros included;
//   - the upper diagonal block goes row by row, MulSub over the rows below
//     and then the division — TrsvUpper's sequence.
func (f *Factorization) SolveMany(b []float64, nrhs int) ([]float64, error) {
	n := f.Sym.N
	if nrhs < 1 {
		return nil, fmt.Errorf("core: SolveMany needs nrhs >= 1, got %d", nrhs)
	}
	if len(b) != n*nrhs {
		return nil, fmt.Errorf("core: SolveMany rhs length %d, want %d", len(b), n*nrhs)
	}
	x := make([]float64, n*nrhs)
	if nrhs < solveManyLoneBelow {
		for j := 0; j < nrhs; j++ {
			f.solveInto(b[j*n:(j+1)*n], x[j*n:(j+1)*n])
		}
		return x, nil
	}
	p := f.Sym.Partition
	bm := f.BM
	w := nrhs
	// Every off-diagonal block's rows and columns lie in one panel, so a
	// block operand or accumulator has at most the widest panel's rows.
	widest := 0
	for k := 0; k < p.NB; k++ {
		widest = max(widest, p.Size(k))
	}
	scratch := make([]float64, (n+2*widest)*w)
	y := scratch[:n*w]                            // working panel, row-major
	neg := scratch[n*w : (n+widest)*w]            // negated operand rows
	acc := scratch[(n+widest)*w : (n+2*widest)*w] // block-product accumulator
	// Transpose in, applying the analyze-phase row permutation: row i of A
	// is row RowPerm[i] of the working matrix.
	for i := 0; i < n; i++ {
		dst := y[f.Sym.RowPerm[i]*w:][:w]
		for q := range dst {
			dst[q] = b[q*n+i]
		}
	}
	// subAcc subtracts accumulator row r from working row gr.
	subAcc := func(r, gr int) {
		dst, src := y[gr*w:gr*w+w], acc[r*w:r*w+w]
		for q := range dst {
			dst[q] -= src[q]
		}
	}
	// Forward sweep, panel by panel: replay the panel's interchanges, solve
	// against the diagonal block's unit-lower part, then eliminate the L
	// blocks below.
	for k := 0; k < p.NB; k++ {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for m := start; m < end; m++ {
			if t := int(f.Piv[m]); t != m {
				ym, yt := y[m*w:][:w], y[t*w:][:w]
				for q := range ym {
					ym[q], yt[q] = yt[q], ym[q]
				}
			}
		}
		d := bm.Diag[k].Data
		yk := y[start*w : end*w]
		for i0 := 0; i0 < s; i0 += 4 {
			mi := min(4, s-i0)
			xblas.MulSub(mi, w, i0, d[i0*s:], s, yk, w, yk[i0*w:], w)
			for i := i0 + 1; i < i0+mi; i++ {
				xblas.MulSub(1, w, i-i0, d[i*s+i0:], s, yk[i0*w:], w, yk[i*w:], w)
			}
		}
		if len(bm.LCol[k]) == 0 {
			continue
		}
		nk := neg[:s*w]
		for q, v := range yk {
			nk[q] = -v
		}
		for _, lb := range bm.LCol[k] {
			m, nc := len(lb.Rows), len(lb.Cols)
			clear(acc[:m*w])
			xblas.MulSub(m, w, nc, lb.Data, nc, nk, w, acc, w)
			for r, gr := range lb.Rows {
				subAcc(r, int(gr))
			}
		}
	}
	// Backward sweep: gather each U block's negated operand rows, take the
	// block product, then the diagonal block's upper part.
	for k := p.NB - 1; k >= 0; k-- {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for _, ub := range bm.URow[k] {
			nc := len(ub.Cols)
			g := neg[:nc*w]
			for t, c := range ub.Cols {
				src, dst := y[int(c)*w:int(c)*w+w], g[t*w:t*w+w]
				for q := range dst {
					dst[q] = -src[q]
				}
			}
			clear(acc[:s*w])
			xblas.MulSub(s, w, nc, ub.Data, nc, g, w, acc, w)
			for r := 0; r < s; r++ {
				subAcc(r, start+r)
			}
		}
		d := bm.Diag[k].Data
		for i := s - 1; i >= 0; i-- {
			yi := y[(start+i)*w:][:w]
			xblas.MulSub(1, w, s-1-i, d[i*s+i+1:], s, y[(start+i+1)*w:], w, yi, w)
			div := d[i*s+i]
			for q := range yi {
				yi[q] /= div
			}
		}
	}
	// Transpose out, undoing the column permutation: working column
	// ColPerm[j] is variable j.
	for j := 0; j < n; j++ {
		src := y[f.Sym.ColPerm[j]*w:][:w]
		for q, v := range src {
			x[q*n+j] = v
		}
	}
	return x, nil
}

// SolveManyExact is SolveMany, whose columns are already bitwise Solve's.
func (f *Factorization) SolveManyExact(b []float64, nrhs int) ([]float64, error) {
	return f.SolveMany(b, nrhs)
}

// Stats summarizes a completed numeric factorization.
type FactStats struct {
	// Interchanges counts the columns whose pivot differed from the
	// diagonal.
	Interchanges int
	// GrowthFactor is max |U| / max |A_w|, the classical GEPP stability
	// monitor (small is good; 2^k worst case).
	GrowthFactor float64
	// Blas3Fraction is the share of floating-point work executed by the
	// BLAS-3 kernels (the paper measures ~0.64 for S*).
	Blas3Fraction float64
	// StorageEntries is the allocated factor storage.
	StorageEntries int64
}

// Stats computes summary statistics of the factorization. maxA must be the
// largest absolute value of the *original* matrix (callers have it from
// assembly; pass 0 to report a growth factor of 0).
func (f *Factorization) Stats(maxA float64) FactStats {
	st := FactStats{StorageEntries: f.BM.StorageEntries()}
	for m, t := range f.Piv {
		if int(t) != m {
			st.Interchanges++
		}
	}
	if total := f.Fl.Total(); total > 0 {
		st.Blas3Fraction = float64(f.Fl.B3) / float64(total)
	}
	if maxA > 0 {
		maxU := 0.0
		p := f.Sym.Partition
		for k := 0; k < p.NB; k++ {
			d := f.BM.Diag[k]
			s := p.Size(k)
			for i := 0; i < s; i++ {
				for j := i; j < s; j++ {
					maxU = math.Max(maxU, math.Abs(d.Data[i*s+j]))
				}
			}
			for _, ub := range f.BM.URow[k] {
				for _, v := range ub.Data {
					maxU = math.Max(maxU, math.Abs(v))
				}
			}
		}
		st.GrowthFactor = maxU / maxA
	}
	return st
}

// MaxAbs returns the largest absolute value of the matrix — the growth-factor
// reference.
func MaxAbs(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		m = math.Max(m, math.Abs(v))
	}
	return m
}
