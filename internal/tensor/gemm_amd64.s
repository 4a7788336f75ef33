// AVX2 micro-kernels for the blocked GEMM (see blocked.go).
//
// Bit-identity contract: each output element is one SIMD lane. The lane
// accumulates its k products in ascending order with one VMULPD rounding and
// one VADDPD rounding per step — exactly the mul-then-add sequence of the
// scalar kernels (FMA is deliberately not used: fusing would drop the
// intermediate rounding and move seeded experiment outputs). Rows whose A
// element is exactly ±0 are skipped via an integer bit test (bits<<1 == 0
// matches +0 and -0 and never matches NaN), preserving the scalar kernels'
// zero-skip convention for non-finite inputs. The B row is each multiply's
// first source: of two NaNs x86 returns the first source's, and the compiled
// scalar av*bv multiplies into bv's register (av stays live across the
// loop), so a NaN in A meeting a NaN in B keeps B's payload everywhere.
//
// Register budget (16 YMM, X15 and R14 left untouched for the Go runtime):
// Y0-Y7 hold the 4×8 accumulator tile, Y8/Y9 the current B row pair, Y10 the
// broadcast A element, Y12/Y13 the product temporaries.

#include "textflag.h"

// func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int)
//
// C[r][j] += Σ_p A[r][p]·B[p][j] for r < 4, j < 8, with C zero-initialized
// in registers and stored once. a points at A's tile-origin row (row-major,
// row stride lda); b points at B's tile-origin column (row stride ldb);
// c points at the output tile (row stride ldc). Strides are in elements.
TEXT ·gemmNN4x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ k+24(FP), CX
	MOVQ lda+32(FP), AX
	MOVQ ldb+40(FP), R12
	MOVQ ldc+48(FP), R13
	SHLQ $3, AX  // strides in bytes
	SHLQ $3, R12
	SHLQ $3, R13
	LEAQ (R8)(AX*1), R9   // rows 1..3 of A
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   nnstore
nnloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	MOVQ (R8), DX
	SHLQ $1, DX
	JZ   nnskip0
	VBROADCASTSD (R8), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
nnskip0:
	MOVQ (R9), DX
	SHLQ $1, DX
	JZ   nnskip1
	VBROADCASTSD (R9), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
nnskip1:
	MOVQ (R10), DX
	SHLQ $1, DX
	JZ   nnskip2
	VBROADCASTSD (R10), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
nnskip2:
	MOVQ (R11), DX
	SHLQ $1, DX
	JZ   nnskip3
	VBROADCASTSD (R11), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
nnskip3:
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ R12, SI
	DECQ CX
	JNZ  nnloop
nnstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int)
//
// Same tile as gemmNN4x8, but A is stored transposed (k×m row-major, as in
// MatMulTransA): a points at Aᵀ's tile-origin column, so the four A elements
// of a K step sit contiguously at a[p*lda + 0..3].
TEXT ·gemmTA4x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ k+24(FP), CX
	MOVQ lda+32(FP), AX
	MOVQ ldb+40(FP), R12
	MOVQ ldc+48(FP), R13
	SHLQ $3, AX
	SHLQ $3, R12
	SHLQ $3, R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   tastore
taloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	MOVQ (R8), DX
	SHLQ $1, DX
	JZ   taskip0
	VBROADCASTSD (R8), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
taskip0:
	MOVQ 8(R8), DX
	SHLQ $1, DX
	JZ   taskip1
	VBROADCASTSD 8(R8), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
taskip1:
	MOVQ 16(R8), DX
	SHLQ $1, DX
	JZ   taskip2
	VBROADCASTSD 16(R8), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
taskip2:
	MOVQ 24(R8), DX
	SHLQ $1, DX
	JZ   taskip3
	VBROADCASTSD 24(R8), Y10
	VMULPD Y10, Y8, Y12
	VMULPD Y10, Y9, Y13
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
taskip3:
	ADDQ AX, R8
	ADDQ R12, SI
	DECQ CX
	JNZ  taloop
tastore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ R13, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
