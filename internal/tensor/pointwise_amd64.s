// AVX-512 pointwise kernels for the layers after a convolution (see
// pointwise.go, and BatchNorm, ReLU and MaxPool2D in internal/nn).
//
// Bit-identity contract. Each lane runs the scalar loop's operations on one
// element, in the same order and without FMA, so every rounding matches. For
// two NaN operands an SSE or AVX operation returns its first source's
// payload, so each operation also keeps the compiled scalar code's first
// source: the running value, as in `t = t − m`, `t = t·invStd`, `t = t·γ`,
// `t = t + β` for the normalize and `u = g − dβ`, `u = u − xh·dγ`, `u = u·k`
// for the input gradient. BatchNorm's kernels walk the items run by run, one
// run of `spatial` elements per (item, channel), with that channel's
// coefficients broadcast and a masked tail for the last spatial%8 elements;
// masked-off lanes are neither read nor written.
//
// KeepPositive moves bits: a VCMPPD 0 < sign (ordered, so a NaN sign is
// false) picks the lanes, and a zero-masked move writes +0 in the others, the
// bits the scalar `& mask` leaves.
//
// MaxPool2x2 loads two pairs of registers per step (see maxPoolTables),
// splits them into left and right taps and then into the four taps of each
// window with VPERMI2PD, which move bits, and keeps the first strict
// maximum with the scalar loop's comparisons: VCMPPD greater-than (ordered,
// so a NaN never replaces the maximum) and a blend of values and indices.
//
// X15 and R14 are left untouched for the Go runtime.

#include "textflag.h"

// func bnNormalizeAVX512(od, xd, mean, invStd, gamma, beta *float64, items, C, spatial int)
//
// DI od and SI xd at the current run, R8 the items left, CX the channel, R10
// a run's length in bytes, R11 its whole blocks (spatial &^ 7), K1 the tail
// lanes; Z16–Z19 the channel's mean, invStd, γ and β.
TEXT ·bnNormalizeAVX512(SB), NOSPLIT, $0-72
	MOVQ od+0(FP), DI
	MOVQ xd+8(FP), SI
	MOVQ items+48(FP), R8
	MOVQ spatial+64(FP), R10
	MOVQ R10, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVB AX, K1
	MOVQ R10, R11
	ANDQ $-8, R11
	SHLQ $3, R10
nitem:
	TESTQ R8, R8
	JZ    ndone
	XORQ  CX, CX
nchan:
	MOVQ mean+16(FP), AX
	VBROADCASTSD (AX)(CX*8), Z16
	MOVQ invStd+24(FP), AX
	VBROADCASTSD (AX)(CX*8), Z17
	MOVQ gamma+32(FP), AX
	VBROADCASTSD (AX)(CX*8), Z18
	MOVQ beta+40(FP), AX
	VBROADCASTSD (AX)(CX*8), Z19
	XORQ DX, DX
nblock:
	CMPQ DX, R11
	JAE  ntail
	VMOVUPD (SI)(DX*8), Z0
	VSUBPD  Z16, Z0, Z0
	VMULPD  Z17, Z0, Z0
	VMULPD  Z18, Z0, Z0
	VADDPD  Z19, Z0, Z0
	VMOVUPD Z0, (DI)(DX*8)
	ADDQ $8, DX
	JMP  nblock
ntail:
	KORTESTB K1, K1
	JZ   nnext
	VMOVUPD.Z (SI)(DX*8), K1, Z0
	VSUBPD  Z16, Z0, Z0
	VMULPD  Z17, Z0, Z0
	VMULPD  Z18, Z0, Z0
	VADDPD  Z19, Z0, Z0
	VMOVUPD Z0, K1, (DI)(DX*8)
nnext:
	ADDQ R10, SI
	ADDQ R10, DI
	INCQ CX
	CMPQ CX, C+56(FP)
	JB   nchan
	DECQ R8
	JMP  nitem
ndone:
	VZEROUPPER
	RET

// func bnGradInAVX512(gid, god, xd, mean, invStd, k, dbeta, dgamma *float64, items, C, spatial int)
//
// DI gid, SI god and BX xd at the current run; the rest as in the
// normalize, with Z16–Z20 the channel's mean, invStd, k, dβ and dγ.
TEXT ·bnGradInAVX512(SB), NOSPLIT, $0-88
	MOVQ gid+0(FP), DI
	MOVQ god+8(FP), SI
	MOVQ xd+16(FP), BX
	MOVQ items+64(FP), R8
	MOVQ spatial+80(FP), R10
	MOVQ R10, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVB AX, K1
	MOVQ R10, R11
	ANDQ $-8, R11
	SHLQ $3, R10
gitem:
	TESTQ R8, R8
	JZ    gdone
	XORQ  CX, CX
gchan:
	MOVQ mean+24(FP), AX
	VBROADCASTSD (AX)(CX*8), Z16
	MOVQ invStd+32(FP), AX
	VBROADCASTSD (AX)(CX*8), Z17
	MOVQ k+40(FP), AX
	VBROADCASTSD (AX)(CX*8), Z18
	MOVQ dbeta+48(FP), AX
	VBROADCASTSD (AX)(CX*8), Z19
	MOVQ dgamma+56(FP), AX
	VBROADCASTSD (AX)(CX*8), Z20
	XORQ DX, DX
gblock:
	CMPQ DX, R11
	JAE  gtail
	VMOVUPD (BX)(DX*8), Z0
	VSUBPD  Z16, Z0, Z0 // x − mean
	VMULPD  Z17, Z0, Z0 // xh
	VMULPD  Z20, Z0, Z0 // xh·dγ
	VMOVUPD (SI)(DX*8), Z1
	VSUBPD  Z19, Z1, Z1 // g − dβ
	VSUBPD  Z0, Z1, Z1
	VMULPD  Z18, Z1, Z1
	VMOVUPD Z1, (DI)(DX*8)
	ADDQ $8, DX
	JMP  gblock
gtail:
	KORTESTB K1, K1
	JZ   gnext
	VMOVUPD.Z (BX)(DX*8), K1, Z0
	VSUBPD  Z16, Z0, Z0
	VMULPD  Z17, Z0, Z0
	VMULPD  Z20, Z0, Z0
	VMOVUPD.Z (SI)(DX*8), K1, Z1
	VSUBPD  Z19, Z1, Z1
	VSUBPD  Z0, Z1, Z1
	VMULPD  Z18, Z1, Z1
	VMOVUPD Z1, K1, (DI)(DX*8)
gnext:
	ADDQ R10, BX
	ADDQ R10, SI
	ADDQ R10, DI
	INCQ CX
	CMPQ CX, C+72(FP)
	JB   gchan
	DECQ R8
	JMP  gitem
gdone:
	VZEROUPPER
	RET

// func keepPositiveAVX512(dst, src, sign *float64, n int)
//
// Z16 is zero; K2 the tail lanes (the low n%8).
TEXT ·keepPositiveAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ sign+16(FP), BX
	MOVQ n+24(FP), CX
	VPXORQ Z16, Z16, Z16
	MOVQ CX, R8
	ANDQ $-16, R8
	XORQ DX, DX
kpair:
	CMPQ DX, R8
	JAE  kone
	VCMPPD $0x11, (BX)(DX*8), Z16, K1 // 0 < sign, ordered
	VCMPPD $0x11, 64(BX)(DX*8), Z16, K3
	VMOVUPD.Z (SI)(DX*8), K1, Z0
	VMOVUPD.Z 64(SI)(DX*8), K3, Z1
	VMOVUPD Z0, (DI)(DX*8)
	VMOVUPD Z1, 64(DI)(DX*8)
	ADDQ $16, DX
	JMP  kpair
kone:
	MOVQ CX, R8
	ANDQ $-8, R8
	CMPQ DX, R8
	JAE  ktail
	VCMPPD $0x11, (BX)(DX*8), Z16, K1
	VMOVUPD.Z (SI)(DX*8), K1, Z0
	VMOVUPD Z0, (DI)(DX*8)
	ADDQ $8, DX
ktail:
	ANDQ $7, CX
	JZ   kdone
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVB AX, K2
	VCMPPD $0x11, (BX)(DX*8), Z16, K2, K1
	VMOVUPD.Z (SI)(DX*8), K1, Z0
	VMOVUPD Z0, K2, (DI)(DX*8)
kdone:
	VZEROUPPER
	RET

// func maxPool2x2AVX512(dst *float64, argmax *int, src *float64, blocks, chunks, w2, base int, t *poolTables)
//
// DI dst and R8 argmax at the current block, SI its first element and R11
// the element w2 further, AX the index argmax gives SI's element, CX the
// blocks left, R12 the blocks left in the output row, R9 a row's blocks, R10
// w2. Z24–Z31 the tables: the even and odd lanes, the top and bottom lanes,
// and the four taps' offsets.
TEXT ·maxPool2x2AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ argmax+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ blocks+24(FP), CX
	MOVQ chunks+32(FP), R9
	MOVQ w2+40(FP), R10
	MOVQ base+48(FP), AX
	MOVQ t+56(FP), BX
	VMOVDQU64 0(BX), Z24
	VMOVDQU64 64(BX), Z25
	VMOVDQU64 128(BX), Z26
	VMOVDQU64 192(BX), Z27
	VMOVDQU64 256(BX), Z28
	VMOVDQU64 320(BX), Z29
	VMOVDQU64 384(BX), Z30
	VMOVDQU64 448(BX), Z31
	LEAQ (SI)(R10*8), R11
	MOVQ R9, R12
mblock:
	TESTQ CX, CX
	JZ    mdone
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD (R11), Z2
	VMOVUPD 64(R11), Z3
	VMOVDQA64 Z24, Z4
	VPERMI2PD Z1, Z0, Z4 // left taps, first half
	VMOVDQA64 Z25, Z5
	VPERMI2PD Z1, Z0, Z5 // right taps, first half
	VMOVDQA64 Z24, Z6
	VPERMI2PD Z3, Z2, Z6 // left taps, second half
	VMOVDQA64 Z25, Z7
	VPERMI2PD Z3, Z2, Z7 // right taps, second half
	VMOVDQA64 Z26, Z8
	VPERMI2PD Z6, Z4, Z8 // tap (0,0): the running maximum
	VMOVDQA64 Z26, Z9
	VPERMI2PD Z7, Z5, Z9 // tap (0,1)
	VMOVDQA64 Z27, Z10
	VPERMI2PD Z6, Z4, Z10 // tap (1,0)
	VMOVDQA64 Z27, Z11
	VPERMI2PD Z7, Z5, Z11 // tap (1,1)
	VPBROADCASTQ AX, Z12
	VPADDQ Z28, Z12, Z13 // the running maximum's index
	VCMPPD $0x1e, Z8, Z9, K1 // tap > maximum, ordered
	VBLENDMPD Z9, Z8, K1, Z8
	VPADDQ Z29, Z12, Z14
	VPBLENDMQ Z14, Z13, K1, Z13
	VCMPPD $0x1e, Z8, Z10, K1
	VBLENDMPD Z10, Z8, K1, Z8
	VPADDQ Z30, Z12, Z14
	VPBLENDMQ Z14, Z13, K1, Z13
	VCMPPD $0x1e, Z8, Z11, K1
	VBLENDMPD Z11, Z8, K1, Z8
	VPADDQ Z31, Z12, Z14
	VPBLENDMQ Z14, Z13, K1, Z13
	VMOVUPD Z8, (DI)
	VMOVDQU64 Z13, (R8)
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $128, SI
	ADDQ $128, R11
	ADDQ $16, AX
	DECQ CX
	DECQ R12
	JNZ  mblock
	LEAQ (SI)(R10*8), SI // the row is done: skip its bottom row
	LEAQ (R11)(R10*8), R11
	ADDQ R10, AX
	MOVQ R9, R12
	JMP  mblock
mdone:
	VZEROUPPER
	RET
