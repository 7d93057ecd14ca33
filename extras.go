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
// (b[j*n:(j+1)*n] holds column j).
func (f *Factorization) SolveMany(b []float64, nrhs int) ([]float64, error) {
	if nrhs < 1 {
		return nil, fmt.Errorf("sstar: SolveMany needs nrhs >= 1, got %d", nrhs)
	}
	return f.fact.SolveMany(b, nrhs)
}

// SolveManyExact solves A X = B for nrhs column-major right-hand sides with a
// stronger guarantee than SolveMany: every solution column is bitwise
// identical to what Solve returns for that column alone. It trades the
// blocked BLAS-3 panel kernels for a lockstep replay of Solve's per-column
// operation sequence, still amortizing the factor-block memory traffic across
// the batch. The server's solve coalescer uses it so that merging concurrent
// single-RHS requests is invisible to clients, bit for bit.
func (f *Factorization) SolveManyExact(b []float64, nrhs int) ([]float64, error) {
	if nrhs < 1 {
		return nil, fmt.Errorf("sstar: SolveManyExact needs nrhs >= 1, got %d", nrhs)
	}
	return f.fact.SolveManyExact(b, nrhs)
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
