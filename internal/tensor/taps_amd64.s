// AVX-512 tap-table kernels for the convolution's column matrix (see
// GatherTaps in taps.go and Conv2D in internal/nn).
//
// Bit-identity contract. The gather moves bits: VPGATHERQQ reads the lanes
// whose offset is in [0, lim) into a zeroed register, so a padding lane
// (negative offset) stores +0, the bits the scalar loop's `& keep` leaves.
// A block with an offset at or past lim is left untouched and the kernel
// returns at it.
//
// The scatter-add takes one row at a time, in ascending order: VGATHERQPD
// reads the destination lanes, VADDPD adds the row's values and VSCATTERQPD
// writes them back, masked to the non-padding lanes and, for the last
// width%8 taps, to the row. Within a row the offsets are distinct, so no two
// lanes of a scatter meet and every destination element takes the same
// additions in the same order as in the scalar loop; a store is seen by the
// next row's gather. The scalar `dst[off] += src[j]` adds src[j] to the
// loaded dst[off] (ADDSD with dst[off] as the first source), which decides
// whose payload a NaN + NaN keeps, and VADDPD keeps that order. A row is
// first checked whole, so one holding an offset at or past lim is left
// untouched and the kernel returns at it.
//
// Z16 holds lim broadcast; X15 and R14 are left untouched for the Go
// runtime.

#include "textflag.h"

// func gatherTapsAVX512(dst, src *float64, offs *int, n, lim int) int
TEXT ·gatherTapsAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), BX
	MOVQ n+24(FP), CX
	VPBROADCASTQ lim+32(FP), Z16
	XORQ DX, DX
gloop:
	CMPQ DX, CX
	JAE  gdone
	VMOVDQU64 (BX)(DX*8), Z0
	VPCMPUQ  $1, Z16, Z0, K1 // 0 ≤ off < lim: lanes to read
	VPMOVQ2M Z0, K2          // off < 0: padding
	KORTESTB K1, K2          // CF: every lane is one or the other
	JCC  gdone
	VPXORQ Z1, Z1, Z1
	VPGATHERQQ (SI)(Z0*8), K1, Z1
	VMOVDQU64 Z1, (DI)(DX*8)
	ADDQ $8, DX
	JMP  gloop
gdone:
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET

// func scatterAddRowsAVX512(dst, src *float64, offs *int, rows, width, lim int) int
//
// DI dst, SI and BX the current row of src and offs, R8 the row count, R10
// the width, R11 its whole blocks (width &^ 7), R12 the row index, K3 the
// tail lanes (the low width%8), Z17 all ones (−1, the running maximum's
// start).
TEXT ·scatterAddRowsAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), BX
	MOVQ rows+24(FP), R8
	MOVQ width+32(FP), R10
	VPBROADCASTQ lim+40(FP), Z16
	MOVQ R10, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVB AX, K3
	MOVQ R10, R11
	ANDQ $-8, R11
	VPTERNLOGQ $0xff, Z17, Z17, Z17
	XORQ R12, R12
srow:
	CMPQ R12, R8
	JAE  sdone
	VMOVDQA64 Z17, Z2 // the row's largest offset
	XORQ DX, DX
scheck:
	CMPQ DX, R11
	JAE  scheckend
	VPMAXSQ (BX)(DX*8), Z2, Z2
	ADDQ $8, DX
	JMP  scheck
scheckend:
	VPMAXSQ (BX)(DX*8), Z2, K3, Z2
	VPCMPQ   $5, Z16, Z2, K1 // max ≥ lim
	KORTESTB K1, K1
	JNZ  sdone
	XORQ DX, DX
sadd:
	CMPQ DX, R11
	JAE  stail
	VMOVDQU64 (BX)(DX*8), Z0
	VPCMPUQ $1, Z16, Z0, K1 // 0 ≤ off < lim: lanes to add into
	KMOVB   K1, K2
	VGATHERQPD (DI)(Z0*8), K1, Z1
	VADDPD  (SI)(DX*8), Z1, Z1
	VSCATTERQPD Z1, K2, (DI)(Z0*8)
	ADDQ $8, DX
	JMP  sadd
stail:
	KORTESTB K3, K3
	JZ   snext
	VMOVDQU64.Z (BX)(DX*8), K3, Z0
	VPCMPUQ $1, Z16, Z0, K3, K1
	KMOVB   K1, K2
	VGATHERQPD (DI)(Z0*8), K1, Z1
	VADDPD  (SI)(DX*8), Z1, K2, Z1 // masked: no read past the row
	VSCATTERQPD Z1, K2, (DI)(Z0*8)
snext:
	LEAQ (BX)(R10*8), BX
	LEAQ (SI)(R10*8), SI
	INCQ R12
	JMP  srow
sdone:
	MOVQ R12, ret+48(FP)
	VZEROUPPER
	RET
