//go:build amd64

package xblas

// hostLevel is the best kernel level this CPU runs (CPUID/XGETBV, checked
// once at startup): the AVX-512 tiles need AVX512F with OS-enabled opmask and
// ZMM state, the AVX2 kernels AVX2+FMA with OS-enabled YMM state.
var hostLevel = detectLevel()

func detectLevel() int {
	switch {
	case !x86HasAVX2FMA():
		return levelPortable
	case !x86HasAVX512F():
		return levelAVX2
	}
	return levelAVX512
}

// x86HasAVX2FMA and x86HasAVX512F are implemented in gemm_amd64.s.
func x86HasAVX2FMA() bool
func x86HasAVX512F() bool

// kernel4x8asm computes the 4x8 micro-tile update C += sign * Ap*Bp over
// packed strips Ap (kc*4, layout l*4+i) and Bp (kc*8, layout l*8+j), with C
// row-major at stride ldc. Implemented in gemm_amd64.s (AVX2+FMA).
//
//go:noescape
func kernel4x8asm(kc int, a, b, c *float64, ldc int, sign float64)

// gemmTile512 is the AVX-512 tile: rows/4 consecutive packed A strips (rows
// 4, 8 or 12) against one packed B strip, folded into C as
// c[offs[i] + col(j)] = FMA(sign, acc, c[offs[i] + col(j)]) for the lanes j
// set in cmask and the rows with offs[i] >= 0, where col(j) is j, or cols[j]
// when cols is not nil. c points at the tile's column base. Implemented in
// gemm_amd64.s; the caller has checked every address the tile reaches.
//
//go:noescape
func gemmTile512(kc, rows int, a, b, c *float64, offs *int, cols *int32, cmask uint64, sign float64)

// kernel4x8 dispatches to the vector kernel when available.
func kernel4x8(kc int, a, b, c []float64, ldc int, sign float64) {
	if level >= levelAVX2 {
		kernel4x8asm(kc, &a[0], &b[0], &c[0], ldc, sign)
		return
	}
	kernel4x8go(kc, a, b, c, ldc, sign)
}

// tile folds the A strips of sweep against one B strip into C: on AVX-512
// as tiles of two strips, the last three or the only one together, else
// strip by strip on the 4x8 kernels.
func tile(k int, as, bs, c []float64, ldc int, offs []int, w *tileCols, sign float64) {
	if level < levelAVX512 {
		tileStrips(k, as, bs, c, ldc, offs, w, sign)
		return
	}
	var cols *int32
	if w.cols != nil {
		cols = &w.cols[0]
	}
	cb := &c[w.base]
	for s, strips := 0, len(offs)/mr; s < strips; {
		g := 2
		if r := strips - s; r == 1 || r == 3 {
			g = r
		}
		gemmTile512(k, g*mr, &as[s*mr*k], &bs[0], cb, &offs[s*mr], cols, w.mask, sign)
		s += g
	}
}

// packStrip8asm copies k rows of w columns (1 <= w <= 8, k >= 1) from src,
// stride ldb, into the packed strip dst (k rows of 8 lanes, the lanes past w
// zero) and returns the lanes whose values are not ±0 throughout, one bit per
// lane. Implemented in pack_amd64.s (AVX2; masked loads on a partial strip,
// which never read past src[(k-1)*ldb+w-1]); the caller has checked every
// address it reaches.
//
//go:noescape
func packStrip8asm(k, w int, src *float64, ldb int, dst *float64) (nonzero uint64)

// packStrip dispatches to the vector pack when available.
func packStrip(dst, src []float64, ldb, k, w int) uint64 {
	if level < levelAVX2 {
		return packStripGo(dst, src, ldb, k, w)
	}
	if k < 1 || w < 1 || w > nr {
		panic("xblas: strip pack of no rows or of 0 or more than nr columns")
	}
	_, _ = src[(k-1)*ldb+w-1], dst[k*nr-1]
	return packStrip8asm(k, w, &src[0], ldb, &dst[0])
}

// mulSub4asm and mulSub1asm are the MulSub micro-kernels for a strip of four
// rows and of one row of C, n columns wide. mulSub1asm's a is the row's k
// multipliers. Implemented in mulsub_amd64.s (AVX multiply and subtract, no
// FMA; masked loads and stores on the last n%8 columns).
//
//go:noescape
func mulSub4asm(n, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func mulSub1asm(n, k int, a *float64, b *float64, ldb int, c *float64)

// mulSub covers C with four-row strips, then single rows, of the vector
// kernels. They apply mulSubGo's operation sequence to each element, so the
// split never shows in the result.
func mulSub(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if level < levelAVX2 {
		mulSubGo(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		mulSub4asm(n, k, &a[i*lda], lda, &b[0], ldb, &c[i*ldc], ldc)
	}
	for ; i < m; i++ {
		mulSub1asm(n, k, &a[i*lda], &b[0], ldb, &c[i*ldc])
	}
}

// elimStepAsm is ElimStep's kernel for 1 <= w <= 7 and n >= 1, except that its
// search starts from -1 instead of row 1's magnitude. Implemented in
// mulsub_amd64.s (AVX2 masked loads and stores over the w live columns).
//
//go:noescape
func elimStepAsm(rows *float64, s, n, w int) (best float64, bestRow int)

func elimStep(rows []float64, s, n, w int) (float64, int) {
	if level < levelAVX2 {
		return elimStepGo(rows, s, n, w)
	}
	best, bestRow := elimStepAsm(&rows[0], s, n, w)
	if v := rows[s+1]; v != v {
		return v, 1 // the vector search passes over every NaN; row 1's opens the search
	}
	return best, bestRow
}
