// Package core implements the factorization algorithms of S*: the sequential
// partitioned sparse LU with partial pivoting of Figs. 6-8, the 1D
// compute-ahead and graph-scheduled parallel codes, the 2D synchronous and
// asynchronous codes of Figs. 12-15, triangular solvers, and the baselines
// the paper compares against (a Gilbert–Peierls left-looking LU with dynamic
// symbolic factorization standing in for SuperLU, and dense GEPP).
package core

import (
	"fmt"
	"math"

	"sstar/internal/sparse"
)

// GPFactors holds the result of the Gilbert–Peierls factorization:
// (P A) = L U with L unit lower triangular. L and U are stored by column;
// row indices inside L/U refer to *pivot positions* (post-permutation).
type GPFactors struct {
	N     int
	LPtr  []int
	LInd  []int32
	LVal  []float64
	UPtr  []int
	UInd  []int32
	UVal  []float64
	PRow  []int // PRow[i] = pivot position assigned to original row i
	Flops int64 // multiply-add + divide count of the numeric factorization
	fillL int   // nnz(L) including unit diagonal
	fillU int   // nnz(U) including diagonal
}

// NnzL returns nnz(L) including the unit diagonal.
func (f *GPFactors) NnzL() int { return f.fillL }

// NnzU returns nnz(U) including the diagonal.
func (f *GPFactors) NnzU() int { return f.fillU }

// NnzTotal returns nnz(L+U) counting the diagonal once — the dynamic-fill
// statistic the paper's Table 1 takes from SuperLU.
func (f *GPFactors) NnzTotal() int { return f.fillL + f.fillU - f.N }

// GPFactorize computes a sparse LU factorization with partial pivoting using
// the Gilbert–Peierls left-looking algorithm with dynamic (on-the-fly)
// symbolic factorization. This is the algorithmic core of SuperLU (minus
// supernodes) and provides the exact dynamic fill and operation counts the
// experiments use as baselines and MFLOPS denominators.
// Pivoting is classical: the largest magnitude wins, and a diagonal that ties
// it is kept.
func GPFactorize(a *sparse.CSR) (*GPFactors, error) {
	n := a.N
	if n != a.M {
		return nil, fmt.Errorf("core: matrix must be square, got %dx%d", n, a.M)
	}
	ac := a.ToCSC()
	f := &GPFactors{
		N:    n,
		LPtr: make([]int, n+1),
		UPtr: make([]int, n+1),
		PRow: make([]int, n),
	}
	pinv := f.PRow
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]float64, n)   // dense accumulator
	xi := make([]int32, 0, n) // pattern of x (original row ids)
	stack := make([]int32, n) // DFS stack
	pstack := make([]int, n)  // per-frame column cursor
	marked := make([]int, n)  // DFS marks, stamped by column
	for i := range marked {
		marked[i] = -1
	}
	// The loops below read L through locals and count into one: a store
	// through f inside them would make every iteration reload f's slices.
	lptr := f.LPtr
	var flops int64
	for j := 0; j < n; j++ {
		// Symbolic: depth-first search from the rows of A(:,j) through the
		// columns of L already computed, producing a topological order of
		// the reachable pivotal rows in xi (reverse DFS finish order).
		xi = xi[:0]
		lind := f.LInd
		rows, vals := ac.Col(j)
		for _, r := range rows {
			if marked[r] == j {
				continue
			}
			// Iterative DFS from r.
			top := 0
			stack[0] = int32(r)
			pstack[0] = 0
			marked[r] = j
			for top >= 0 {
				node := stack[top]
				pcol := pinv[node]
				if pcol < 0 {
					// Non-pivotal row: leaf.
					xi = append(xi, node)
					top--
					continue
				}
				lo, hi := lptr[pcol], lptr[pcol+1]
				cursor := pstack[top]
				advanced := false
				for k := lo + cursor; k < hi; k++ {
					child := lind[k]
					if marked[child] != j {
						marked[child] = j
						pstack[top] = k - lo + 1
						top++
						stack[top] = child
						pstack[top] = 0
						advanced = true
						break
					}
				}
				if !advanced {
					xi = append(xi, node)
					top--
				}
			}
		}
		// xi is in reverse topological order (children first); numeric
		// elimination must process pivotal entries parents-first, i.e.
		// iterate xi from the END.
		for _, r := range xi {
			x[r] = 0
		}
		for k, r := range rows {
			x[r] = vals[k]
		}
		for idx := len(xi) - 1; idx >= 0; idx-- {
			r := xi[idx]
			pcol := pinv[r]
			if pcol < 0 {
				continue
			}
			xr := x[r]
			if xr == 0 {
				continue
			}
			lo, hi := lptr[pcol], lptr[pcol+1]
			li, lv := lind[lo:hi], f.LVal[lo:hi]
			lv = lv[:len(li)] // drops the bounds check on lv[k]
			for k, i := range li {
				x[i] -= float64(lv[k] * xr)
			}
			flops += int64(2 * (hi - lo))
		}
		// Partial pivoting among the non-pivotal rows of x.
		var pivRow int32 = -1
		pivAbs := 0.0
		var diagRow int32 = -1
		for _, r := range xi {
			if pinv[r] >= 0 {
				continue
			}
			if v := math.Abs(x[r]); v > pivAbs {
				pivAbs = v
				pivRow = r
			}
			if int(r) == j {
				diagRow = r
			}
		}
		if pivRow < 0 || pivAbs == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, j)
		}
		// A diagonal that ties the maximum is kept: xi need not list it first.
		if diagRow >= 0 && math.Abs(x[diagRow]) >= pivAbs {
			pivRow = diagRow
		}
		pivVal := x[pivRow]
		pinv[pivRow] = j
		// Emit U column j (pivotal rows) and L column j (non-pivotal).
		for _, r := range xi {
			if p := pinv[r]; p >= 0 && r != pivRow {
				if x[r] != 0 {
					f.UInd = append(f.UInd, int32(p))
					f.UVal = append(f.UVal, x[r])
				}
			}
		}
		f.UInd = append(f.UInd, int32(j))
		f.UVal = append(f.UVal, pivVal)
		f.UPtr[j+1] = len(f.UInd)
		for _, r := range xi {
			if pinv[r] < 0 && x[r] != 0 {
				f.LInd = append(f.LInd, r)
				f.LVal = append(f.LVal, x[r]/pivVal)
				flops++
			}
		}
		lptr[j+1] = len(f.LInd)
	}
	f.Flops = flops
	f.fillL = len(f.LInd) + n // plus unit diagonal
	f.fillU = len(f.UInd)
	return f, nil
}

// Solve solves A x = b using the computed factors, overwriting nothing;
// returns x.
func (f *GPFactors) Solve(b []float64) []float64 {
	n := f.N
	y := make([]float64, n)
	// y = P b: row i of A went to pivot position PRow[i].
	for i := 0; i < n; i++ {
		y[f.PRow[i]] = b[i]
	}
	// Forward solve L z = y (unit diagonal; L stored by column with
	// original row ids — translate through PRow).
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for k := f.LPtr[j]; k < f.LPtr[j+1]; k++ {
			y[f.PRow[f.LInd[k]]] -= float64(f.LVal[k] * yj)
		}
	}
	// Backward solve U x = z. U columns hold pivot-position row indices;
	// the diagonal entry of column j is the last one appended.
	for j := n - 1; j >= 0; j-- {
		dk := f.UPtr[j+1] - 1
		y[j] /= f.UVal[dk]
		xj := y[j]
		for k := f.UPtr[j]; k < dk; k++ {
			y[f.UInd[k]] -= float64(f.UVal[k] * xj)
		}
	}
	return y
}
