// AVX2 pack of one B strip for the GEMM engine: copy k rows of w <= 8
// columns into a packed strip of 8 lanes per row and OR each lane's bits on
// the way, so the zero-column test reads nothing twice.
//
// Register plan of packStrip8asm:
//   CX       rows left
//   SI, R8   source row and its stride in bytes
//   DI       packed row (64 bytes apart)
//   Y0, Y1   the row's lanes 0..3 and 4..7
//   Y2, Y3   the OR of every row's lanes 0..3 and 4..7
//   Y14, Y15 lane masks of a partial strip (laneMask, mulsub_amd64.s): masked
//            loads read dead lanes as zero and never touch their memory, and
//            the full-width stores write those zeros as the strip's padding

#include "textflag.h"

// func packStrip8asm(k, w int, src *float64, ldb int, dst *float64) (nonzero uint64)
TEXT ·packStrip8asm(SB), NOSPLIT, $0-48
	MOVQ   k+0(FP), CX
	MOVQ   w+8(FP), DX
	MOVQ   src+16(FP), SI
	MOVQ   ldb+24(FP), R8
	MOVQ   dst+32(FP), DI
	SHLQ   $3, R8
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   DX, $8
	JLT    partial

full:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VORPD   Y0, Y2, Y2
	VORPD   Y1, Y3, Y3
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     full
	JMP     lanes

partial:
	LEAQ    ·laneMask(SB), R9
	MOVQ    $8, R10
	SUBQ    DX, R10
	VMOVDQU (R9)(R10*8), Y14
	VMOVDQU 32(R9)(R10*8), Y15

ploop:
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD 32(SI), Y15, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VORPD      Y0, Y2, Y2
	VORPD      Y1, Y3, Y3
	ADDQ       R8, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        ploop

lanes:
	// A lane is nonzero when its OR with the sign bit cleared is not zero:
	// mask the sign off, compare with zero, and invert the zero lanes' bits.
	VPCMPEQQ  Y4, Y4, Y4
	VPSRLQ    $1, Y4, Y4
	VANDPD    Y4, Y2, Y2
	VANDPD    Y4, Y3, Y3
	VPXOR     Y5, Y5, Y5
	VPCMPEQQ  Y5, Y2, Y2
	VPCMPEQQ  Y5, Y3, Y3
	VMOVMSKPD Y2, AX
	VMOVMSKPD Y3, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	XORQ      $0xFF, AX
	MOVQ      AX, nonzero+40(FP)
	VZEROUPPER
	RET

