package sstar

import (
	"fmt"

	"sstar/internal/core"
	"sstar/internal/machine"
)

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
