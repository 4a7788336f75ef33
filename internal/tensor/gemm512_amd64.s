// AVX-512 micro-kernels for the blocked GEMM (see blocked.go).
//
// The bit-identity contract is gemm_amd64.s's: each output element is one
// SIMD lane that accumulates its k products in ascending order with one
// VMULPD rounding and one VADDPD rounding per step (no FMA), and the result
// is what it would be had every product with an exactly ±0 A element been
// skipped. A tile row is one ZMM register of 8 columns, and the multiply
// broadcasts its A element straight from memory ({1to8}).
//
// Skipping is only observable when the B row is not finite: with B finite,
// 0·b is ±0, and adding ±0 leaves every accumulator as it was — an
// accumulator starts at +0 and never becomes −0, since a round-to-nearest
// sum is −0 only when both addends are. So each k step classifies its B row
// once (VFPCLASSPD: NaN or ±Inf) and, when every lane is finite, runs all
// rows without a test (FAST); only a row holding Inf or NaN takes the
// per-row zero test (SKIP: bits<<1 == 0 matches +0 and −0 and never NaN),
// so 0·Inf never manufactures a NaN the scalar code does not. Sparse A —
// binary features, ReLU outputs — then costs no mispredicted branches.
//
// The column mask in K1 selects the tile's valid columns: B rows load with
// zero-masking, so lanes past the matrix edge are never read (and read as
// +0, which is finite), and C rows store under the same mask. A ragged last
// column block therefore runs through the kernel too, in place or packed.
//
// Registers: Z0-Z7 hold the tile rows, Z8 the B row, Z9 the product, K2
// the B row's non-finite lanes. X15 and R14 are left untouched for the Go
// runtime.

#include "textflag.h"

// BROW loads the B row at SI under the column mask and jumps to slow if a
// lane of it is NaN or ±Inf.
#define BROW(slow) \
	VMOVUPD.Z (SI), K1, Z8; \
	VFPCLASSPDZ $0x99, Z8, K2; \
	KORTESTW K2, K2; \
	JNZ  slow

// FAST adds the B row times the A element at mem into acc. The B row is
// the multiply's first source, as in gemm_amd64.s, so a product of two
// NaNs carries B's payload like the scalar code's.
#define FAST(mem, acc) \
	VMULPD.BCST mem, Z8, Z9; \
	VADDPD Z9, acc, acc

// SKIP is FAST unless the A element at mem is ±0.
#define SKIP(mem, acc, skip) \
	MOVQ mem, DX; \
	ADDQ DX, DX; \
	JZ   skip; \
	FAST(mem, acc); \
skip:

// LOADARGS loads the common arguments: DI = c, R8 = a, SI = b, CX = k and
// the strides in bytes, AX = lda, R12 = ldb, R13 = ldc; K1 = mask.
#define LOADARGS \
	MOVQ c+0(FP), DI; \
	MOVQ a+8(FP), R8; \
	MOVQ b+16(FP), SI; \
	MOVQ k+24(FP), CX; \
	MOVQ lda+32(FP), AX; \
	MOVQ ldb+40(FP), R12; \
	MOVQ ldc+48(FP), R13; \
	SHLQ $3, AX; \
	SHLQ $3, R12; \
	SHLQ $3, R13; \
	MOVQ mask+56(FP), DX; \
	KMOVW DX, K1

#define ZERO4 \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3

#define ZERO8 \
	ZERO4; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7

#define STORE4 \
	VMOVUPD Z0, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z1, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z2, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z3, K1, (DI)

#define STORE8 \
	STORE4; \
	ADDQ R13, DI; \
	VMOVUPD Z4, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z5, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z6, K1, (DI); \
	ADDQ R13, DI; \
	VMOVUPD Z7, K1, (DI)

// func gemmNN8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)
//
// C[r][j] = Σ_p A[r][p]·B[p][j] for r < 8 and the columns j < 8 set in
// mask. a points at A's tile-origin row (row stride lda), b at B's
// tile-origin column (row stride ldb), c at the output tile (row stride
// ldc). Rows 0-7 of A sit at R8 + {0,1,2,4}·lda, R9 + {0,2}·lda and
// R10 + {0,1}·lda, with R9 = R8 + 3·lda and R10 = R8 + 6·lda.
TEXT ·gemmNN8x8z(SB), NOSPLIT, $0-64
	LOADARGS
	LEAQ (R8)(AX*2), R9
	ADDQ AX, R9
	LEAQ (R9)(AX*2), R10
	ADDQ AX, R10
	ZERO8
	TESTQ CX, CX
	JZ   nn8store
nn8loop:
	BROW(nn8slow)
	FAST((R8), Z0)
	FAST((R8)(AX*1), Z1)
	FAST((R8)(AX*2), Z2)
	FAST((R9), Z3)
	FAST((R8)(AX*4), Z4)
	FAST((R9)(AX*2), Z5)
	FAST((R10), Z6)
	FAST((R10)(AX*1), Z7)
nn8next:
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ R12, SI
	DECQ CX
	JNZ  nn8loop
nn8store:
	STORE8
	VZEROUPPER
	RET
nn8slow:
	SKIP((R8), Z0, nn8s0)
	SKIP((R8)(AX*1), Z1, nn8s1)
	SKIP((R8)(AX*2), Z2, nn8s2)
	SKIP((R9), Z3, nn8s3)
	SKIP((R8)(AX*4), Z4, nn8s4)
	SKIP((R9)(AX*2), Z5, nn8s5)
	SKIP((R10), Z6, nn8s6)
	SKIP((R10)(AX*1), Z7, nn8s7)
	JMP  nn8next

// func gemmNN4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)
//
// gemmNN8x8z on four rows.
TEXT ·gemmNN4x8z(SB), NOSPLIT, $0-64
	LOADARGS
	LEAQ (R8)(AX*2), R9
	ADDQ AX, R9
	ZERO4
	TESTQ CX, CX
	JZ   nn4store
nn4loop:
	BROW(nn4slow)
	FAST((R8), Z0)
	FAST((R8)(AX*1), Z1)
	FAST((R8)(AX*2), Z2)
	FAST((R9), Z3)
nn4next:
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ R12, SI
	DECQ CX
	JNZ  nn4loop
nn4store:
	STORE4
	VZEROUPPER
	RET
nn4slow:
	SKIP((R8), Z0, nn4s0)
	SKIP((R8)(AX*1), Z1, nn4s1)
	SKIP((R8)(AX*2), Z2, nn4s2)
	SKIP((R9), Z3, nn4s3)
	JMP  nn4next

// func gemmTA8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)
//
// gemmNN8x8z with A stored transposed (k×m row-major, as in MatMulTransA):
// a points at Aᵀ's tile-origin column, so the eight A elements of a k step
// sit contiguously at a[p*lda + 0..7].
TEXT ·gemmTA8x8z(SB), NOSPLIT, $0-64
	LOADARGS
	ZERO8
	TESTQ CX, CX
	JZ   ta8store
ta8loop:
	BROW(ta8slow)
	FAST((R8), Z0)
	FAST(8(R8), Z1)
	FAST(16(R8), Z2)
	FAST(24(R8), Z3)
	FAST(32(R8), Z4)
	FAST(40(R8), Z5)
	FAST(48(R8), Z6)
	FAST(56(R8), Z7)
ta8next:
	ADDQ AX, R8
	ADDQ R12, SI
	DECQ CX
	JNZ  ta8loop
ta8store:
	STORE8
	VZEROUPPER
	RET
ta8slow:
	SKIP((R8), Z0, ta8s0)
	SKIP(8(R8), Z1, ta8s1)
	SKIP(16(R8), Z2, ta8s2)
	SKIP(24(R8), Z3, ta8s3)
	SKIP(32(R8), Z4, ta8s4)
	SKIP(40(R8), Z5, ta8s5)
	SKIP(48(R8), Z6, ta8s6)
	SKIP(56(R8), Z7, ta8s7)
	JMP  ta8next

// func gemmTA4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)
//
// gemmTA8x8z on four rows.
TEXT ·gemmTA4x8z(SB), NOSPLIT, $0-64
	LOADARGS
	ZERO4
	TESTQ CX, CX
	JZ   ta4store
ta4loop:
	BROW(ta4slow)
	FAST((R8), Z0)
	FAST(8(R8), Z1)
	FAST(16(R8), Z2)
	FAST(24(R8), Z3)
ta4next:
	ADDQ AX, R8
	ADDQ R12, SI
	DECQ CX
	JNZ  ta4loop
ta4store:
	STORE4
	VZEROUPPER
	RET
ta4slow:
	SKIP((R8), Z0, ta4s0)
	SKIP(8(R8), Z1, ta4s1)
	SKIP(16(R8), Z2, ta4s2)
	SKIP(24(R8), Z3, ta4s3)
	JMP  ta4next
