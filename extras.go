package sstar

import (
	"fmt"

	"sstar/internal/core"
	"sstar/internal/machine"
)

// SolveTranspose solves Aᵀ x = b using the same factors, without forming or
// factorizing Aᵀ.
func (f *Factorization) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.sym.N {
		return nil, fmt.Errorf("sstar: rhs length %d, want %d", len(b), f.sym.N)
	}
	return f.fact.SolveTranspose(b), nil
}

// SolveMany solves A X = B for nrhs right-hand sides stored column-major in b
// (b[j*n:(j+1)*n] holds column j). Column j of the result is bitwise what
// Solve returns for column j alone, at every nrhs; only the sign bit of a NaN
// is outside that promise. The factor blocks stream through memory once for
// the whole batch instead of once per column, which is where a batch gains.
func (f *Factorization) SolveMany(b []float64, nrhs int) ([]float64, error) {
	return f.fact.SolveMany(b, nrhs)
}

// SolveManyExact is SolveMany, whose columns are already bitwise Solve's.
func (f *Factorization) SolveManyExact(b []float64, nrhs int) ([]float64, error) {
	return f.SolveMany(b, nrhs)
}

// RefineResult reports iterative refinement progress.
type RefineResult = core.RefineResult

// Refine improves a computed solution x of A x = b in place by iterative
// refinement with the existing factors, returning the iteration count and the
// final componentwise backward error.
func (f *Factorization) Refine(a *Matrix, x, b []float64, tol float64, maxIter int) RefineResult {
	return f.fact.Refine(a, x, b, tol, maxIter)
}

// CondEst estimates the 1-norm condition number of a using Hager's algorithm
// with the computed factors (a few extra solves with A and Aᵀ).
func (f *Factorization) CondEst(a *Matrix) float64 { return f.fact.CondEst(a) }

// Stats summarizes the numeric factorization: interchange count, pivot
// growth, the BLAS-3 work fraction and factor storage.
type Stats = core.FactStats

// Stats returns summary statistics; a supplies the original values for the
// growth-factor reference.
func (f *Factorization) Stats(a *Matrix) Stats {
	return f.fact.Stats(core.MaxAbs(a.Val))
}

// SolveStats reports the modeled cost of a distributed triangular solve.
type SolveStats struct {
	ParallelTime float64
	SentBytes    int64
	SentMessages int64
}

// SolveDistributed solves A x = b on the virtual machine with the factors
// distributed as the preceding Options.Procs > 0 run left them: over the
// factorization's own column-block owners under the 1D mappings,
// block-cyclically on the same grid under the 2D ones. It demonstrates the
// paper's remark that the triangular solves cost far less than the
// factorization. On a Factorization produced by a host Factorize it models a
// single-processor solve.
func (f *Factorization) SolveDistributed(b []float64) ([]float64, *SolveStats, error) {
	if len(b) != f.sym.N {
		return nil, nil, fmt.Errorf("sstar: rhs length %d, want %d", len(b), f.sym.N)
	}
	nproc, at, model := f.parProcs, f.parAt, f.parModel
	if at == nil {
		nproc, at, model = 1, func(_, _ int) int { return 0 }, machine.T3E()
	}
	res, err := core.SolvePar(f.fact, nproc, at, model, b)
	if err != nil {
		return nil, nil, err
	}
	return res.X, &SolveStats{
		ParallelTime: res.ParallelTime,
		SentBytes:    res.SentBytes,
		SentMessages: res.SentMessages,
	}, nil
}

// Equilibrate computes simple row/column scalings for a badly scaled matrix,
// returning the scaled matrix R·A·C and the scale vectors. Solve the original
// system as: factorize the scaled matrix, solve with (R b), multiply the
// result by C componentwise.
func Equilibrate(a *Matrix) (scaled *Matrix, rowScale, colScale []float64) {
	return core.Equilibrate(a)
}
