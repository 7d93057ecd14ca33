//go:build !amd64

package xblas

// hostLevel: off amd64 only the portable kernels exist.
var hostLevel = levelPortable

// kernel4x8 runs the portable micro-kernel on non-amd64 targets. math.FMA
// is correctly rounded on every platform (hardware fused multiply-add where
// available, exact software emulation otherwise), so results are bitwise
// identical to the amd64 vector kernels.
func kernel4x8(kc int, a, b, c []float64, ldc int, sign float64) {
	kernel4x8go(kc, a, b, c, ldc, sign)
}

// tile folds the A strips of sweep against one B strip into C on the
// portable kernel.
func tile(k int, as, bs, c []float64, ldc int, offs []int, w *tileCols, sign float64) {
	tileStrips(k, as, bs, c, ldc, offs, w, sign)
}

// packStrip runs the portable pack.
func packStrip(dst, src []float64, ldb, k, w int) uint64 { return packStripGo(dst, src, ldb, k, w) }

// mulSub runs the portable kernel, whose explicitly rounded products give
// the amd64 vector kernels' bits on every architecture.
func mulSub(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	mulSubGo(m, n, k, a, lda, b, ldb, c, ldc)
}

// elimStep runs the portable kernel.
func elimStep(rows []float64, s, n, w int) (float64, int) { return elimStepGo(rows, s, n, w) }
