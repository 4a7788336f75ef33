// AVX-512 kernels for the exact fixed-point accumulator (see FixedFold in
// fixed.go and the format in internal/fl/exact.go).
//
// Bit-identity contract. The fold is the scalar addScaled loop with one
// coordinate per lane: the same VMULPD rounding of x·scale, the same bit
// extraction, and the same 128-bit two's-complement add, which is exact
// integer arithmetic in any lane order. Where the scalar code picks a limb
// with a mask, the kernel leans on VPSRLVQ/VPSLLVQ yielding 0 for a count
// of 64 or more: hi = M >> r, lo = M << (64−r) | M >> (r−64), with the
// counts read as unsigned, which is also 0 in both limbs for r ≥ 128 (a term
// under 2^-60). The carry out of the low limb is found with VPCMPUQ (the
// sum is below an addend) and added to the high limb under that mask. A
// block with a lane the format cannot take (r < 28: |c| ≥ 2^40, ±Inf, NaN)
// is left untouched and the kernel returns at it, so the scalar code sets
// the poison marks.
//
// The finalize is fixAcc.float then the division: the magnitude's limbs go
// through VCVTUQQ2PD, which rounds each once to nearest like Go's uint64
// conversion and the scalar code's exact-halves sum; the scaling by 2^4 and
// 2^-60 is exact; VADDPD and VDIVPD round like ADDSD and DIVSD. A block with
// a poisoned coordinate is left to the scalar code.
//
// Constants live in Z16-Z22; X15 and R14 are left untouched for the Go
// runtime.

#include "textflag.h"

// func fixedFoldAVX512(hi, lo *uint64, state *float64, n int, scale float64) int
TEXT ·fixedFoldAVX512(SB), NOSPLIT, $0-48
	MOVQ hi+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ state+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD scale+32(FP), Z16
	MOVQ $0x7ff, AX
	VPBROADCASTQ AX, Z17
	MOVQ $1062, AX // the largest biased exponent below 2^40
	VPBROADCASTQ AX, Z18
	MOVQ $1090, AX // fixShiftBase: r = 1090 − e
	VPBROADCASTQ AX, Z19
	MOVQ $64, AX
	VPBROADCASTQ AX, Z20
	MOVQ $1, AX
	VPBROADCASTQ AX, Z21
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z22
	XORQ DX, DX
foldloop:
	CMPQ DX, CX
	JAE  folddone
	VMULPD  (BX)(DX*8), Z16, Z0 // c = x·scale
	VPSRLQ  $52, Z0, Z1
	VPANDQ  Z17, Z1, Z1         // e
	VPCMPUQ $6, Z18, Z1, K1     // e > 1062: r < 28, poison
	KORTESTB K1, K1
	JNZ  folddone
	VPSUBQ  Z1, Z19, Z2         // r
	VPSLLQ  $11, Z0, Z3
	VPORQ   Z22, Z3, Z3         // M, the left-aligned mantissa
	VPSRLVQ Z2, Z3, Z4          // hi = M >> r
	VPSUBQ  Z2, Z20, Z5
	VPSLLVQ Z5, Z3, Z5          // M << (64 − r)
	VPSUBQ  Z20, Z2, Z6
	VPSRLVQ Z6, Z3, Z6          // M >> (r − 64)
	VPORQ   Z6, Z5, Z5          // lo
	VPSRAQ  $63, Z0, Z7         // s, the sign mask
	VPXORQ  Z7, Z4, Z4
	VPXORQ  Z7, Z5, Z5
	VPSRLQ  $63, Z0, Z8         // the carry-in s&1
	VMOVDQU64 (SI)(DX*8), Z9
	VPADDQ  Z5, Z9, Z10         // t = cell.lo + lo^s
	VPCMPUQ $1, Z9, Z10, K2     // t < cell.lo: carried
	VPADDQ  Z8, Z10, Z11        // lo' = t + s&1
	VPCMPUQ $1, Z10, Z11, K3    // lo' < t: carried
	KORB    K2, K3, K2
	VMOVDQU64 Z11, (SI)(DX*8)
	VPADDQ  (DI)(DX*8), Z4, Z12 // cell.hi + hi^s
	VPADDQ  Z21, Z12, K2, Z12   // + the carry
	VMOVDQU64 Z12, (DI)(DX*8)
	ADDQ $8, DX
	JMP  foldloop
folddone:
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET

// func fixedFinalizeAVX512(out *float64, hi, lo *uint64, bad *uint8, n int, div float64) int
TEXT ·fixedFinalizeAVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ hi+8(FP), SI
	MOVQ lo+16(FP), BX
	MOVQ bad+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD div+40(FP), Z16
	MOVQ $0x4030000000000000, AX // 2^4
	VPBROADCASTQ AX, Z17
	MOVQ $0x3c30000000000000, AX // 2^-60
	VPBROADCASTQ AX, Z18
	MOVQ $1, AX
	VPBROADCASTQ AX, Z19
	XORQ DX, DX
finloop:
	CMPQ DX, CX
	JAE  findone
	MOVQ (R8)(DX*1), AX // the block's eight poison marks
	TESTQ AX, AX
	JNZ  findone
	VMOVDQU64 (SI)(DX*8), Z0
	VPSRAQ  $63, Z0, Z1         // s
	VPXORQ  (BX)(DX*8), Z1, Z2  // lo^s
	VPSRLQ  $63, Z1, Z3
	VPADDQ  Z3, Z2, Z4          // the magnitude's low limb
	VPCMPUQ $1, Z2, Z4, K1      // it carried
	VPXORQ  Z1, Z0, Z5
	VPADDQ  Z19, Z5, K1, Z5     // the magnitude's high limb
	VCVTUQQ2PD Z5, Z5
	VCVTUQQ2PD Z4, Z4
	VMULPD  Z17, Z5, Z5
	VMULPD  Z18, Z4, Z4
	VADDPD  Z4, Z5, Z5
	VPSLLQ  $63, Z1, Z6
	VPORQ   Z6, Z5, Z5
	VDIVPD  Z16, Z5, Z5
	VMOVUPD Z5, (DI)(DX*8)
	ADDQ $8, DX
	JMP  finloop
findone:
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET
