// Package xblas implements the dense linear-algebra kernels that S* runs its
// supernode blocks on, in place of the Cray T3D/T3E libraries the paper links
// against; stdlib only. The routines are the ones the factorization and the
// solves call, nothing else:
//
//   - Gemm, GemmAdd, GemmUpdate (with GemmScatter): the block updates, on the
//     packed register-tiled FMA engine of gemm.go;
//   - TrsmLowerUnitLeft: the blocked triangular solve of task Update,
//     coupled through that engine;
//   - MulSub, ElimStep (mulsub.go): the unfused kernels under the panel
//     factorization, the TRSM diagonal blocks and the multi-RHS solve;
//   - Dot, DotRows, DotRowsGather, TrsvLowerUnit, TrsvUpper: the vector
//     kernels of the single-RHS solves, several rows' dependent chains side
//     by side.
//
// Every routine documents its floating-point operation count, which the
// callers tally by BLAS level so the machine model can charge panel work and
// block updates at different rates (the distinction the paper's analysis in
// Section 6.1 hinges on).
//
// Matrices are dense, column-major is NOT used: all matrices here are
// row-major with an explicit leading dimension (stride), matching Go slice
// idiom: element (i,j) of an m-by-n matrix a with stride lda is a[i*lda+j].
package xblas

// Dot returns x · y (BLAS-1): the products rounded and summed in ascending
// order from +0 (never fused). Flops: 2*len(x).
func Dot(x, y []float64) float64 {
	s := 0.0
	y = y[:len(x)]
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// The single-RHS sweeps below are latency-bound when written one row at a
// time: a row's sum is one dependent chain of adds, so the loop retires one
// factor entry per add latency however fast the memory streams. The row-block
// kernels run four rows' chains side by side instead, one accumulator per
// row. Every row still takes its own products in its own order — ascending,
// from +0 for the dots, from b[i] for the triangular solves — so each output
// is bitwise the one-row-at-a-time loop's, on every architecture (every
// product is rounded before it is added: float64(a*b) keeps a compiler from
// fusing the two where the ISA has an FMA).

// DotRows computes out[r] = Σ_l a[r*lda+l]*x[l] for r < m, l < k: m dot
// products of the rows of a (m-by-k, stride lda) with one vector, out[r]
// bitwise Dot(a[r*lda:r*lda+k], x). out must not overlap a or x. Flops:
// 2*m*k.
func DotRows(m, k int, a []float64, lda int, x, out []float64) {
	x = x[:k]
	r := 0
	for ; r+4 <= m; r += 4 {
		a0 := a[r*lda:][:k]
		a1 := a[(r+1)*lda:][:k]
		a2 := a[(r+2)*lda:][:k]
		a3 := a[(r+3)*lda:][:k]
		var s0, s1, s2, s3 float64
		for l, v := range x {
			s0 += float64(a0[l] * v)
			s1 += float64(a1[l] * v)
			s2 += float64(a2[l] * v)
			s3 += float64(a3[l] * v)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < m; r++ {
		out[r] = Dot(a[r*lda:][:k], x)
	}
}

// DotRowsGather is DotRows against a gathered vector: out[r] = Σ_q
// a[r*lda+q]*y[cols[q]] for r < m, q < len(cols), each sum from +0 in
// ascending q — the product of a packed U block with the solved entries its
// columns name. One load of y[cols[q]] serves the whole row group. out must
// not overlap a or y. Flops: 2*m*len(cols).
func DotRowsGather(m int, a []float64, lda int, cols []int32, y, out []float64) {
	k := len(cols)
	r := 0
	for ; r+4 <= m; r += 4 {
		a0 := a[r*lda:][:k]
		a1 := a[(r+1)*lda:][:k]
		a2 := a[(r+2)*lda:][:k]
		a3 := a[(r+3)*lda:][:k]
		var s0, s1, s2, s3 float64
		for q, c := range cols {
			v := y[c]
			s0 += float64(a0[q] * v)
			s1 += float64(a1[q] * v)
			s2 += float64(a2[q] * v)
			s3 += float64(a3[q] * v)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < m; r++ {
		row := a[r*lda:][:k]
		s := 0.0
		for q, c := range cols {
			s += float64(row[q] * y[c])
		}
		out[r] = s
	}
}

// TrsvLowerUnit solves L*x = b in place for unit lower-triangular L (n-by-n,
// stride ldl), overwriting b with x. Row i computes b[i] - Σ_p L[i][p]*x[p]
// in ascending p < i. Rows go in groups of four: the group's chains run side
// by side over the rows solved before the group, then its small triangle
// finishes row by row. Flops: n*(n-1).
func TrsvLowerUnit(n int, l []float64, ldl int, b []float64) {
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := l[i*ldl:][:i]
		r1 := l[(i+1)*ldl:][:i+1]
		r2 := l[(i+2)*ldl:][:i+2]
		r3 := l[(i+3)*ldl:][:i+3]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for p, v := range b[:i] {
			s0 -= float64(r0[p] * v)
			s1 -= float64(r1[p] * v)
			s2 -= float64(r2[p] * v)
			s3 -= float64(r3[p] * v)
		}
		s1 -= float64(r1[i] * s0)
		s2 -= float64(r2[i] * s0)
		s3 -= float64(r3[i] * s0)
		s2 -= float64(r2[i+1] * s1)
		s3 -= float64(r3[i+1] * s1)
		s3 -= float64(r3[i+2] * s2)
		b[i], b[i+1], b[i+2], b[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		row := l[i*ldl:][:i]
		s := b[i]
		for p, v := range row {
			s -= float64(v * b[p])
		}
		b[i] = s
	}
}

// TrsvUpper solves U*x = b in place for upper-triangular U (n-by-n, stride
// ldu) with nonzero diagonal, overwriting b with x. Row i computes (b[i] -
// Σ_p U[i][p]*x[p]) / U[i][i] in ascending p > i, so its chain opens with
// the row solved just before it: unlike TrsvLowerUnit, no two rows' chains
// can run side by side without reordering a sum. Flops: n*n.
func TrsvUpper(n int, u []float64, ldu int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		row := u[i*ldu : i*ldu+n]
		s := b[i]
		for p := i + 1; p < n; p++ {
			s -= float64(row[p] * b[p])
		}
		b[i] = s / row[i]
	}
}
