// Package xblas implements the dense linear-algebra kernels that S* runs its
// supernode blocks on, in place of the Cray T3D/T3E libraries the paper links
// against; stdlib only. The routines are the ones the factorization and the
// solves call, nothing else:
//
//   - Gemm, GemmAdd, GemmUpdate (with GemmScatter): the block updates, on the
//     packed register-tiled FMA engine of gemm.go;
//   - TrsmLowerUnitLeft, TrsmUpperLeft: blocked triangular solves, coupled
//     through that engine;
//   - MulSub, ElimStep (mulsub.go): the unfused kernels under the panel
//     factorization and the TRSM diagonal blocks;
//   - Dot, TrsvLowerUnit, TrsvUpper: the vector kernels of the single-RHS
//     solves.
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

// Dot returns x · y (BLAS-1). Flops: 2*len(x).
func Dot(x, y []float64) float64 {
	s := 0.0
	_ = y[len(x)-1]
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// TrsvLowerUnit solves L*x = b in place for unit lower-triangular L (n-by-n,
// stride ldl), overwriting b with x. Flops: n*(n-1).
func TrsvLowerUnit(n int, l []float64, ldl int, b []float64) {
	for i := 1; i < n; i++ {
		row := l[i*ldl : i*ldl+i]
		s := b[i]
		for p, v := range row {
			s -= v * b[p]
		}
		b[i] = s
	}
}

// TrsvUpper solves U*x = b in place for upper-triangular U (n-by-n, stride
// ldu) with nonzero diagonal, overwriting b with x. Flops: n*n.
func TrsvUpper(n int, u []float64, ldu int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		row := u[i*ldu : i*ldu+n]
		s := b[i]
		for p := i + 1; p < n; p++ {
			s -= row[p] * b[p]
		}
		b[i] = s / row[i]
	}
}
