package sstar

import (
	"fmt"

	"sstar/internal/ordering"
)

// BTFFactorization factors a reducible matrix through its block upper
// triangular form: the matrix is permuted so all entries lie on or above a
// block diagonal of irreducible (strongly connected) blocks, only the
// diagonal blocks are LU-factored with S*, and solves back-substitute through
// the off-diagonal couplings. For reducible systems — circuit matrices
// especially — this factors far less than the whole matrix would need.
type BTFFactorization struct {
	n       int
	rowPerm []int
	colPerm []int
	starts  []int
	perm    *Matrix          // the permuted matrix (couplings + 1x1 values)
	blocks  []*Factorization // per diagonal block; nil for 1x1 blocks
	diag    []float64        // 1x1 block values, indexed by block
}

// FactorizeBTF computes the block triangular form of a and factors each
// irreducible diagonal block with S* (1-by-1 blocks are handled directly).
func FactorizeBTF(a *Matrix, o Options) (*BTFFactorization, error) {
	if err := validate(a, Options{}); err != nil {
		return nil, err
	}
	rowPerm, colPerm, starts := ordering.BlockTriangular(a)
	perm := a.Permute(rowPerm, colPerm)
	nb := len(starts) - 1
	f := &BTFFactorization{
		n: a.N, rowPerm: rowPerm, colPerm: colPerm, starts: starts,
		perm: perm, blocks: make([]*Factorization, nb), diag: make([]float64, nb),
	}
	for b := 0; b < nb; b++ {
		lo, hi := starts[b], starts[b+1]
		if hi-lo == 1 {
			v := perm.At(lo, lo)
			if v == 0 {
				return nil, fmt.Errorf("%w: btf 1x1 block at column %d", ErrSingular, lo)
			}
			f.diag[b] = v
			continue
		}
		sub := extractSquare(perm, lo, hi)
		bf, err := Factorize(sub, o)
		if err != nil {
			return nil, fmt.Errorf("sstar: btf: block %d (%d..%d): %w", b, lo, hi-1, err)
		}
		f.blocks[b] = bf
	}
	return f, nil
}

// extractSquare copies the [lo,hi) x [lo,hi) diagonal submatrix.
func extractSquare(a *Matrix, lo, hi int) *Matrix {
	coo := NewCOO(hi-lo, hi-lo)
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j >= lo && j < hi {
				coo.Add(i-lo, j-lo, vals[k])
			}
		}
	}
	return coo.ToCSR()
}

// NumBlocks returns the number of irreducible diagonal blocks.
func (f *BTFFactorization) NumBlocks() int { return len(f.starts) - 1 }

// BlockSizes returns the sizes of the diagonal blocks in order.
func (f *BTFFactorization) BlockSizes() []int {
	out := make([]int, f.NumBlocks())
	for b := range out {
		out[b] = f.starts[b+1] - f.starts[b]
	}
	return out
}

// FactoredFraction returns the fraction of the matrix order covered by
// blocks larger than 1x1 — the share that actually needed LU factorization.
func (f *BTFFactorization) FactoredFraction() float64 {
	covered := 0
	for b, bf := range f.blocks {
		if bf != nil {
			covered += f.starts[b+1] - f.starts[b]
		}
	}
	return float64(covered) / float64(f.n)
}

// Solve solves A x = b through block back-substitution: the last block first,
// each block's right-hand side reduced by the couplings to already-solved
// later blocks.
func (f *BTFFactorization) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sstar: rhs length %d, want %d", len(b), f.n)
	}
	y := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		y[f.rowPerm[i]] = b[i]
	}
	x := make([]float64, f.n)
	for blk := f.NumBlocks() - 1; blk >= 0; blk-- {
		lo, hi := f.starts[blk], f.starts[blk+1]
		rhs := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			sum := y[i]
			cols, vals := f.perm.Row(i)
			for k, j := range cols {
				if j >= hi {
					sum -= float64(vals[k] * x[j])
				}
			}
			rhs[i-lo] = sum
		}
		if bf := f.blocks[blk]; bf != nil {
			xb, err := bf.Solve(rhs)
			if err != nil {
				return nil, err
			}
			copy(x[lo:hi], xb)
		} else {
			x[lo] = rhs[0] / f.diag[blk]
		}
	}
	out := make([]float64, f.n)
	for j := 0; j < f.n; j++ {
		out[j] = x[f.colPerm[j]]
	}
	return out, nil
}

// Refactorize reuses the block decomposition and each block's symbolic
// analysis for a matrix with the same pattern but new values.
func (f *BTFFactorization) Refactorize(a *Matrix) error {
	if a.N != f.n {
		return fmt.Errorf("sstar: btf refactorize size mismatch")
	}
	perm := a.Permute(f.rowPerm, f.colPerm)
	f.perm = perm
	for b := range f.blocks {
		lo, hi := f.starts[b], f.starts[b+1]
		if f.blocks[b] == nil {
			v := perm.At(lo, lo)
			if v == 0 {
				return fmt.Errorf("%w: btf 1x1 block at column %d", ErrSingular, lo)
			}
			f.diag[b] = v
			continue
		}
		if err := f.blocks[b].Refactorize(extractSquare(perm, lo, hi)); err != nil {
			return fmt.Errorf("sstar: btf: block %d: %w", b, err)
		}
	}
	return nil
}
