// Vector tiles for the packed GEMM engine: the AVX2+FMA 4x8 kernel and the
// AVX-512 tile family below it, with the CPU checks that pick between them.
//
// Register plan for kernel4x8asm:
//   Y0..Y7   4x8 accumulator tile (row i in Y(2i) [cols 0..3] and Y(2i+1)
//            [cols 4..7])
//   Y12,Y13  current B strip row (8 columns)
//   Y14,Y15  broadcast A values
// The write-back folds C += sign*acc with one FMA (single rounding) per
// element, matching the portable math.FMA kernel bit for bit.

#include "textflag.h"

// func x86HasAVX2FMA() bool
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID.(EAX=1):ECX — FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	// XGETBV(XCR0): SSE (bit 1) and YMM (bit 2) state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.(EAX=7,ECX=0):EBX — AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func kernel4x8asm(kc int, a, b, c *float64, ldc int, sign float64)
TEXT ·kernel4x8asm(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (BX), Y12
	VMOVUPD      32(BX), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD 8(SI), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	ADDQ         $32, SI
	ADDQ         $64, BX
	DECQ         CX
	JNZ          loop

	// Write back: C[i] += sign * acc[i], one rounding per element.
	VBROADCASTSD sign+40(FP), Y15
	SHLQ         $3, R8
	LEAQ         (DI)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	LEAQ         (R10)(R8*1), R11

	VMOVUPD     (DI), Y12
	VFMADD231PD Y15, Y0, Y12
	VMOVUPD     Y12, (DI)
	VMOVUPD     32(DI), Y13
	VFMADD231PD Y15, Y1, Y13
	VMOVUPD     Y13, 32(DI)

	VMOVUPD     (R9), Y12
	VFMADD231PD Y15, Y2, Y12
	VMOVUPD     Y12, (R9)
	VMOVUPD     32(R9), Y13
	VFMADD231PD Y15, Y3, Y13
	VMOVUPD     Y13, 32(R9)

	VMOVUPD     (R10), Y12
	VFMADD231PD Y15, Y4, Y12
	VMOVUPD     Y12, (R10)
	VMOVUPD     32(R10), Y13
	VFMADD231PD Y15, Y5, Y13
	VMOVUPD     Y13, 32(R10)

	VMOVUPD     (R11), Y12
	VFMADD231PD Y15, Y6, Y12
	VMOVUPD     Y12, (R11)
	VMOVUPD     32(R11), Y13
	VFMADD231PD Y15, Y7, Y13
	VMOVUPD     Y13, 32(R11)

	VZEROUPPER
	RET

// func x86HasAVX512F() bool
TEXT ·x86HasAVX512F(SB), NOSPLIT, $0-1
	// CPUID.(EAX=1):ECX — OSXSAVE (bit 27), so XGETBV may run.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   no512
	// XGETBV(XCR0): SSE, YMM, opmask, ZMM0-15 upper halves and ZMM16-31
	// state (bits 1, 2, 5, 6, 7) all enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	// CPUID.(EAX=7,ECX=0):EBX — AVX512F (bit 16).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// AVX-512 tile family. One kernel covers 4-, 8- and 12-row tiles: one, two
// or three consecutive packed A strips (4 rows each, kc*32 bytes apart)
// against one packed B strip, one zmm accumulator per tile row.
//
// Register plan of gemmTile512:
//   CX       l countdown        AX  tile rows (4, 8 or 12)
//   SI       A strip 0, row l   DX  bytes from one A strip to the next
//   BX       B strip, row l     DI  C at the tile's column base
//   R8       offs (per-row element offsets into C, -1: no slot)
//   R14      cols (per-column element offsets, nil: contiguous columns)
//   R12      column mask        R13 zero
//   Z0..Z11  accumulators (row i in Zi)
//   Z12      B row l            Z13 sign, broadcast
//   Z14      C row being folded Z15 (Y15) column offsets
//   K1       column mask        K2, K3 row masks
// The write-back is one FMA per element, C = sign*acc + C, under a per-row
// mask that is the column mask, or zero for a row with no slot (a masked-off
// lane is neither read nor written, so its address need not be valid).

// ROWMASK points R10 at tile row i of C and loads its mask into K2.
#define ROWMASK(i) \
	MOVQ    (i*8)(R8), R10; \
	MOVQ    R12, R11; \
	TESTQ   R10, R10; \
	CMOVQLT R13, R11; \
	CMOVQLT R13, R10; \
	KMOVW   R11, K2; \
	LEAQ    (DI)(R10*8), R10

// FOLD folds accumulator acc into contiguous row i with masked moves.
#define FOLD(acc, i) \
	ROWMASK(i); \
	VMOVUPD.Z   (R10), K2, Z14; \
	VFMADD231PD Z13, acc, Z14; \
	VMOVUPD     Z14, K2, (R10)

// SCATTER folds accumulator acc into row i through the column offsets.
// Gathers and scatters clear their mask, hence the copy.
#define SCATTER(acc, i) \
	ROWMASK(i); \
	KMOVW       K2, K3; \
	VGATHERDPD  (R10)(Y15*8), K2, Z14; \
	VFMADD231PD Z13, acc, Z14; \
	VSCATTERDPD Z14, K3, (R10)(Y15*8)

// PREFETCHROW prefetches both cache lines an 8-column row i may touch.
#define PREFETCHROW(i) \
	MOVQ       (i*8)(R8), R10; \
	PREFETCHT0 (DI)(R10*8); \
	PREFETCHT0 56(DI)(R10*8)

// func gemmTile512(kc, rows int, a, b, c *float64, offs *int, cols *int32, cmask uint64, sign float64)
TEXT ·gemmTile512(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ rows+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ offs+40(FP), R8
	MOVQ cols+48(FP), R14
	MOVQ cmask+56(FP), R12
	MOVQ CX, DX
	SHLQ $5, DX

	// Start the tile's C rows on their way to L1 while the k loop runs (a
	// prefetch never faults, so rows without a slot need no test).
	PREFETCHROW(0)
	PREFETCHROW(1)
	PREFETCHROW(2)
	PREFETCHROW(3)
	CMPQ AX, $4
	JEQ  zero
	PREFETCHROW(4)
	PREFETCHROW(5)
	PREFETCHROW(6)
	PREFETCHROW(7)
	CMPQ AX, $8
	JEQ  zero
	PREFETCHROW(8)
	PREFETCHROW(9)
	PREFETCHROW(10)
	PREFETCHROW(11)

zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

	CMPQ AX, $8
	JEQ  loop8
	JGT  loop12

loop4:
	VMOVUPD          (BX), Z12
	VFMADD231PD.BCST (SI), Z12, Z0
	VFMADD231PD.BCST 8(SI), Z12, Z1
	VFMADD231PD.BCST 16(SI), Z12, Z2
	VFMADD231PD.BCST 24(SI), Z12, Z3
	ADDQ             $32, SI
	ADDQ             $64, BX
	DECQ             CX
	JNZ              loop4
	JMP              fold

loop8:
	VMOVUPD          (BX), Z12
	VFMADD231PD.BCST (SI), Z12, Z0
	VFMADD231PD.BCST 8(SI), Z12, Z1
	VFMADD231PD.BCST 16(SI), Z12, Z2
	VFMADD231PD.BCST 24(SI), Z12, Z3
	VFMADD231PD.BCST (SI)(DX*1), Z12, Z4
	VFMADD231PD.BCST 8(SI)(DX*1), Z12, Z5
	VFMADD231PD.BCST 16(SI)(DX*1), Z12, Z6
	VFMADD231PD.BCST 24(SI)(DX*1), Z12, Z7
	ADDQ             $32, SI
	ADDQ             $64, BX
	DECQ             CX
	JNZ              loop8
	JMP              fold

loop12:
	VMOVUPD          (BX), Z12
	VFMADD231PD.BCST (SI), Z12, Z0
	VFMADD231PD.BCST 8(SI), Z12, Z1
	VFMADD231PD.BCST 16(SI), Z12, Z2
	VFMADD231PD.BCST 24(SI), Z12, Z3
	VFMADD231PD.BCST (SI)(DX*1), Z12, Z4
	VFMADD231PD.BCST 8(SI)(DX*1), Z12, Z5
	VFMADD231PD.BCST 16(SI)(DX*1), Z12, Z6
	VFMADD231PD.BCST 24(SI)(DX*1), Z12, Z7
	VFMADD231PD.BCST (SI)(DX*2), Z12, Z8
	VFMADD231PD.BCST 8(SI)(DX*2), Z12, Z9
	VFMADD231PD.BCST 16(SI)(DX*2), Z12, Z10
	VFMADD231PD.BCST 24(SI)(DX*2), Z12, Z11
	ADDQ             $32, SI
	ADDQ             $64, BX
	DECQ             CX
	JNZ              loop12

fold:
	VBROADCASTSD sign+64(FP), Z13
	XORQ         R13, R13
	TESTQ        R14, R14
	JNZ          scatter

	FOLD(Z0, 0)
	FOLD(Z1, 1)
	FOLD(Z2, 2)
	FOLD(Z3, 3)
	CMPQ AX, $4
	JEQ  done
	FOLD(Z4, 4)
	FOLD(Z5, 5)
	FOLD(Z6, 6)
	FOLD(Z7, 7)
	CMPQ AX, $8
	JEQ  done
	FOLD(Z8, 8)
	FOLD(Z9, 9)
	FOLD(Z10, 10)
	FOLD(Z11, 11)
	JMP  done

scatter:
	KMOVW     R12, K1
	VMOVDQU32.Z (R14), K1, Z15
	SCATTER(Z0, 0)
	SCATTER(Z1, 1)
	SCATTER(Z2, 2)
	SCATTER(Z3, 3)
	CMPQ AX, $4
	JEQ  done
	SCATTER(Z4, 4)
	SCATTER(Z5, 5)
	SCATTER(Z6, 6)
	SCATTER(Z7, 7)
	CMPQ AX, $8
	JEQ  done
	SCATTER(Z8, 8)
	SCATTER(Z9, 9)
	SCATTER(Z10, 10)
	SCATTER(Z11, 11)

done:
	VZEROUPPER
	RET
