// AVX2 micro-kernels for MulSub and ElimStep: every multiply-subtract is an
// unfused VMULPD then VSUBPD — never an FMA — and operands are read in place.
//
// Register plan of the two MulSub kernels (C -= A*B, C held in registers):
//   AX       columns left in the strip
//   CX       l countdown
//   SI, R8   A (row 0 of the strip) and its stride in bytes
//   BX, R11  B (row 0, current tile's first column) and its stride in bytes
//   DI, R12  C (row 0, current tile's first column) and its stride in bytes
//   R9, R10  running A pointers (rows 0 and 1; rows 2, 3 are those + 2*R8)
//   R13      C row 1
//   DX       running B pointer (row l of the tile)
//   Y0..Y7   the C tile; Y8, Y9 the B row; Y10, Y11 broadcast A values;
//            Y12..Y15 products
// A strip is covered by 8-column tiles and, for the last 1..7 columns, one
// tile under lane masks (Y14, Y15): masked loads read dead lanes as zero and
// never touch their memory, masked stores leave it alone.

#include "textflag.h"

// laneMask: a lane mask with its first w lanes set (0 <= w <= 8) is the 8
// quadwords starting at entry 8-w.
DATA ·laneMask+0(SB)/8, $-1
DATA ·laneMask+8(SB)/8, $-1
DATA ·laneMask+16(SB)/8, $-1
DATA ·laneMask+24(SB)/8, $-1
DATA ·laneMask+32(SB)/8, $-1
DATA ·laneMask+40(SB)/8, $-1
DATA ·laneMask+48(SB)/8, $-1
DATA ·laneMask+56(SB)/8, $-1
DATA ·laneMask+64(SB)/8, $0
DATA ·laneMask+72(SB)/8, $0
DATA ·laneMask+80(SB)/8, $0
DATA ·laneMask+88(SB)/8, $0
DATA ·laneMask+96(SB)/8, $0
DATA ·laneMask+104(SB)/8, $0
DATA ·laneMask+112(SB)/8, $0
DATA ·laneMask+120(SB)/8, $0
GLOBL ·laneMask(SB), RODATA|NOPTR, $128

// func mulSub4asm(n, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)
TEXT ·mulSub4asm(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R11
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R12
	SHLQ $3, R8
	SHLQ $3, R11
	SHLQ $3, R12

tile8:
	CMPQ AX, $8
	JLT  rem4
	LEAQ    (DI)(R12*1), R13
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R13), Y2
	VMOVUPD 32(R13), Y3
	VMOVUPD (DI)(R12*2), Y4
	VMOVUPD 32(DI)(R12*2), Y5
	VMOVUPD (R13)(R12*2), Y6
	VMOVUPD 32(R13)(R12*2), Y7
	MOVQ    SI, R9
	LEAQ    (SI)(R8*1), R10
	MOVQ    BX, DX
	MOVQ    k+8(FP), CX

loop8:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (R9), Y10
	VBROADCASTSD (R10), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VSUBPD       Y12, Y0, Y0
	VSUBPD       Y13, Y1, Y1
	VSUBPD       Y14, Y2, Y2
	VSUBPD       Y15, Y3, Y3
	VBROADCASTSD (R9)(R8*2), Y10
	VBROADCASTSD (R10)(R8*2), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VSUBPD       Y12, Y4, Y4
	VSUBPD       Y13, Y5, Y5
	VSUBPD       Y14, Y6, Y6
	VSUBPD       Y15, Y7, Y7
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         R11, DX
	DECQ         CX
	JNZ          loop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, 32(R13)
	VMOVUPD Y4, (DI)(R12*2)
	VMOVUPD Y5, 32(DI)(R12*2)
	VMOVUPD Y6, (R13)(R12*2)
	VMOVUPD Y7, 32(R13)(R12*2)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, AX
	JMP     tile8

rem4:
	TESTQ AX, AX
	JZ    done4
	LEAQ       ·laneMask(SB), R9
	MOVQ       $8, R10
	SUBQ       AX, R10
	VMOVDQU    (R9)(R10*8), Y14
	VMOVDQU    32(R9)(R10*8), Y15
	LEAQ       (DI)(R12*1), R13
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1
	VMASKMOVPD (R13), Y14, Y2
	VMASKMOVPD 32(R13), Y15, Y3
	VMASKMOVPD (DI)(R12*2), Y14, Y4
	VMASKMOVPD 32(DI)(R12*2), Y15, Y5
	VMASKMOVPD (R13)(R12*2), Y14, Y6
	VMASKMOVPD 32(R13)(R12*2), Y15, Y7
	MOVQ       SI, R9
	LEAQ       (SI)(R8*1), R10
	MOVQ       BX, DX
	MOVQ       k+8(FP), CX

loopr4:
	VMASKMOVPD   (DX), Y14, Y8
	VMASKMOVPD   32(DX), Y15, Y9
	VBROADCASTSD (R9), Y10
	VBROADCASTSD (R10), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VSUBPD       Y12, Y0, Y0
	VSUBPD       Y13, Y1, Y1
	VMULPD       Y8, Y11, Y12
	VMULPD       Y9, Y11, Y13
	VSUBPD       Y12, Y2, Y2
	VSUBPD       Y13, Y3, Y3
	VBROADCASTSD (R9)(R8*2), Y10
	VBROADCASTSD (R10)(R8*2), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VSUBPD       Y12, Y4, Y4
	VSUBPD       Y13, Y5, Y5
	VMULPD       Y8, Y11, Y12
	VMULPD       Y9, Y11, Y13
	VSUBPD       Y12, Y6, Y6
	VSUBPD       Y13, Y7, Y7
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         R11, DX
	DECQ         CX
	JNZ          loopr4

	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VMASKMOVPD Y2, Y14, (R13)
	VMASKMOVPD Y3, Y15, 32(R13)
	VMASKMOVPD Y4, Y14, (DI)(R12*2)
	VMASKMOVPD Y5, Y15, 32(DI)(R12*2)
	VMASKMOVPD Y6, Y14, (R13)(R12*2)
	VMASKMOVPD Y7, Y15, 32(R13)(R12*2)

done4:
	VZEROUPPER
	RET

// func mulSub1asm(n, k int, a *float64, b *float64, ldb int, c *float64)
TEXT ·mulSub1asm(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), AX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), R11
	MOVQ c+40(FP), DI
	SHLQ $3, R11

row8:
	CMPQ AX, $8
	JLT  rem1
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    SI, R9
	MOVQ    BX, DX
	MOVQ    k+8(FP), CX

rloop8:
	VBROADCASTSD (R9), Y10
	VMULPD       (DX), Y10, Y12
	VMULPD       32(DX), Y10, Y13
	VSUBPD       Y12, Y0, Y0
	VSUBPD       Y13, Y1, Y1
	ADDQ         $8, R9
	ADDQ         R11, DX
	DECQ         CX
	JNZ          rloop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, AX
	JMP     row8

rem1:
	TESTQ AX, AX
	JZ    done1
	LEAQ       ·laneMask(SB), R9
	MOVQ       $8, R10
	SUBQ       AX, R10
	VMOVDQU    (R9)(R10*8), Y14
	VMOVDQU    32(R9)(R10*8), Y15
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1
	MOVQ       SI, R9
	MOVQ       BX, DX
	MOVQ       k+8(FP), CX

rloopr:
	VMASKMOVPD   (DX), Y14, Y8
	VMASKMOVPD   32(DX), Y15, Y9
	VBROADCASTSD (R9), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VSUBPD       Y12, Y0, Y0
	VSUBPD       Y13, Y1, Y1
	ADDQ         $8, R9
	ADDQ         R11, DX
	DECQ         CX
	JNZ          rloopr

	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)

done1:
	VZEROUPPER
	RET

// func elimStepAsm(rows *float64, s, n, w int) (best float64, bestRow int)
//
//   SI, R8   current row (at the pivot column) and the row stride in bytes
//   CX       rows left; R9 current row number; R10 best row
//   X7       pivot; Y8, Y9 the pivot row's w entries (dead lanes zero)
//   Y14, Y15 lane masks of columns 1..4 and 5..8 right of the pivot column
//   X6       best magnitude; X13 the abs mask
TEXT ·elimStepAsm(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), SI
	MOVQ s+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ w+24(FP), DX
	SHLQ $3, R8
	LEAQ ·laneMask(SB), AX
	MOVQ $8, BX
	SUBQ DX, BX
	VMOVDQU    (AX)(BX*8), Y14
	VMOVDQU    32(AX)(BX*8), Y15
	VMASKMOVPD 8(SI), Y14, Y8
	VMASKMOVPD 40(SI), Y15, Y9
	VMOVSD     (SI), X7
	VPCMPEQD   X13, X13, X13
	VPSRLQ     $1, X13, X13
	MOVQ       $0xBFF0000000000000, AX // -1.0: below every magnitude
	VMOVQ      AX, X6
	MOVQ       $1, R9
	XORQ       R10, R10
	CMPQ       DX, $4
	JGT        wide

narrow:
	ADDQ         R8, SI
	VMOVSD       (SI), X0
	VDIVSD       X7, X0, X0
	VMOVSD       X0, (SI)
	VBROADCASTSD X0, Y1
	VMASKMOVPD   8(SI), Y14, Y2
	VMULPD       Y8, Y1, Y3
	VSUBPD       Y3, Y2, Y2
	VMASKMOVPD   Y2, Y14, 8(SI)
	VANDPD       X13, X2, X3
	VUCOMISD     X6, X3
	JLS          narrownext
	VMOVAPD      X3, X6
	MOVQ         R9, R10

narrownext:
	INCQ R9
	DECQ CX
	JNZ  narrow
	JMP  elimdone

wide:
	ADDQ         R8, SI
	VMOVSD       (SI), X0
	VDIVSD       X7, X0, X0
	VMOVSD       X0, (SI)
	VBROADCASTSD X0, Y1
	VMASKMOVPD   8(SI), Y14, Y2
	VMASKMOVPD   40(SI), Y15, Y4
	VMULPD       Y8, Y1, Y3
	VMULPD       Y9, Y1, Y5
	VSUBPD       Y3, Y2, Y2
	VSUBPD       Y5, Y4, Y4
	VMASKMOVPD   Y2, Y14, 8(SI)
	VMASKMOVPD   Y4, Y15, 40(SI)
	VANDPD       X13, X2, X3
	VUCOMISD     X6, X3
	JLS          widenext
	VMOVAPD      X3, X6
	MOVQ         R9, R10

widenext:
	INCQ R9
	DECQ CX
	JNZ  wide

elimdone:
	VMOVSD X6, best+32(FP)
	MOVQ   R10, bestRow+40(FP)
	VZEROUPPER
	RET
