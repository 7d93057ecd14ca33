//go:build amd64

package xblas

// useAsmKernel reports whether the AVX2+FMA vector micro-kernel can run on
// this CPU (checked once at startup via CPUID/XGETBV). The fallback
// kernel4x8go produces bitwise-identical results, so the switch is purely a
// speed decision.
var useAsmKernel = x86HasAVX2FMA()

// x86HasAVX2FMA reports AVX2+FMA hardware support with OS-enabled YMM state.
// Implemented in gemm_amd64.s.
func x86HasAVX2FMA() bool

// kernel4x8asm computes the 4x8 micro-tile update C += sign * Ap*Bp over
// packed strips Ap (kc*4, layout l*4+i) and Bp (kc*8, layout l*8+j), with C
// row-major at stride ldc. Implemented in gemm_amd64.s (AVX2+FMA).
//
//go:noescape
func kernel4x8asm(kc int, a, b, c *float64, ldc int, sign float64)

// KernelName identifies the micro-kernel selected at startup, for benchmark
// reports.
func KernelName() string {
	if useAsmKernel {
		return "amd64-avx2-fma"
	}
	return "portable-fma"
}

// kernel4x8 dispatches to the vector kernel when available.
func kernel4x8(kc int, a, b, c []float64, ldc int, sign float64) {
	if useAsmKernel {
		kernel4x8asm(kc, &a[0], &b[0], &c[0], ldc, sign)
		return
	}
	kernel4x8go(kc, a, b, c, ldc, sign)
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
	if !useAsmKernel {
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
	if !useAsmKernel {
		return elimStepGo(rows, s, n, w)
	}
	best, bestRow := elimStepAsm(&rows[0], s, n, w)
	if v := rows[s+1]; v != v {
		return v, 1 // the vector search passes over every NaN; row 1's opens the search
	}
	return best, bestRow
}
