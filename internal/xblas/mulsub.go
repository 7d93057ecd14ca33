// Unfused, accumulate-in-C kernel.
//
// The packed engine of gemm.go sums a whole product in registers with fused
// multiply-adds and folds it into C once. The panel factorization and the
// diagonal blocks of the triangular solves are defined differently: every
// element takes its updates one at a time, c = round(c - round(a*b)), product
// and difference each rounded, in ascending l — the sequence of the
// column-at-a-time elimination they replace. MulSub performs exactly that
// sequence on a register tile: C is loaded once, each l is a multiply and a
// subtract (never a fused multiply-add), C is stored once. Since every
// element sees the same operations in the same order whatever the tiling, a
// blocked caller gets the bits of the unblocked loop.
//
// The operands are read in place — A by broadcast, rows of B are contiguous —
// so nothing is packed and a call on a few rows costs no set-up.
package xblas

import "math"

// MulSub computes C[i,j] -= A[i,l]*B[l,j] for l = 0..k-1 in ascending order,
// the product and the difference each rounded to float64 (no fused
// multiply-add, no skipped zero multiplier), for row-major A (m-by-k, stride
// lda), B (k-by-n, stride ldb) and C (m-by-n, stride ldc). A, B and C may be
// views of one array as long as C's elements are disjoint from A's and B's.
// Flops: 2*m*n*k. Not counted in Stats.
func MulSub(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	// One bounds check per operand, so the kernels may run unchecked.
	_, _, _ = a[(m-1)*lda+k-1], b[(k-1)*ldb+n-1], c[(m-1)*ldc+n-1]
	mulSub(m, n, k, a, lda, b, ldb, c, ldc)
}

// mulSubGo is the portable kernel and the definition of MulSub. The explicit
// float64 conversion rounds the product before the subtraction; without it
// the Go spec lets a compiler fuse the two on architectures with an FMA
// instruction.
func mulSubGo(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for l, al := range a[i*lda : i*lda+k] {
			brow := b[l*ldb : l*ldb+n]
			for j, v := range brow {
				crow[j] -= float64(al * v)
			}
		}
	}
}

// ElimStep is one column elimination of a dense LU inside a block of at most
// eight columns — the scaling, the rank-1 update restricted to the block and
// the next column's pivot search, in one pass over the rows. rows holds the
// pivot row and the n rows below it at stride s, each from the pivot column
// on. In every row below, the first entry is divided by the pivot and the w
// entries right of it (w <= 7) take that multiplier times the pivot row's,
// product rounded before the subtraction, no multiplier skipped. The result is
// the pivot search of the next column, the first of those w: the largest
// magnitude and the row holding it, counted from the pivot row. The first
// maximum wins, NaNs below row 1 are passed over, and row 1 — the next
// diagonal candidate — opens the search, so a NaN there is the answer. With
// w = 0 there is no next column and the result is 0, 0.
func ElimStep(rows []float64, s, n, w int) (best float64, bestRow int) {
	if n <= 0 {
		return 0, 0
	}
	_ = rows[n*s+w] // one bounds check, so the kernel may run unchecked
	if w == 0 {
		pivVal := rows[0]
		for r := 1; r <= n; r++ {
			rows[r*s] /= pivVal
		}
		return 0, 0
	}
	return elimStep(rows, s, n, w)
}

// elimStepGo is the portable kernel and the definition of ElimStep for w > 0.
func elimStepGo(rows []float64, s, n, w int) (best float64, bestRow int) {
	pivVal, urow := rows[0], rows[1:1+w]
	for r := 1; r <= n; r++ {
		row := rows[r*s : r*s+1+w]
		l := row[0] / pivVal
		row[0] = l
		row = row[1:]
		for j, u := range urow {
			row[j] -= float64(l * u)
		}
		if v := math.Abs(row[0]); v > best || r == 1 {
			best, bestRow = v, r
		}
	}
	return best, bestRow
}
