// Byte-plane transpose kernels (see ScatterPlanes in planes.go).
//
// Bit-identity contract: the kernels only move bytes and XOR them with the
// anchor's, so they compute the scalar loops' bits for every input, NaN
// payloads included. A step covers 32 coordinates, 256 bytes, as eight YMM
// registers R0..R7: Rk holds coordinates 2k, 2k+1 in its low lane and
// 16+2k, 16+2k+1 in its high lane, so that the unpack ladder below leaves
// each plane's 32 bytes in coordinate order and no cross-lane permute is
// needed.
//
// Scatter: VPSHUFB turns each lane's two coordinates into eight words, word
// p holding byte p of both; VPUNPCK{L,H}WD, {L,H}DQ and {L,H}QDQ then merge
// register pairs until register p holds plane p. Gather runs the ladder the
// other way from the planes — {L,H}BW, {L,H}WD, {L,H}DQ — which lands in the
// same lane layout without a byte shuffle.
//
// Registers: Y0-Y7 the step, Y8 a swap, Y9 the anchor's lane pair, Y14 the
// byte shuffle. DX is the coordinate index, CX the count (a multiple of 32),
// SI the state, DI the anchor (nil for none), AX BX R8-R13 the eight planes.
// X15 and R14 are left untouched for the Go runtime.

#include "textflag.h"

// The VPSHUFB control: byte p of the lane's first coordinate, then of its
// second, for p = 0..7, in both lanes.
DATA planeShuf<>+0(SB)/8, $0x0b030a0209010800
DATA planeShuf<>+8(SB)/8, $0x0f070e060d050c04
DATA planeShuf<>+16(SB)/8, $0x0b030a0209010800
DATA planeShuf<>+24(SB)/8, $0x0f070e060d050c04
GLOBL planeShuf<>(SB), RODATA|NOPTR, $32

// LOADPLANES reads the plane pointers out of the *[8][]byte at AX.
#define LOADPLANES \
	MOVQ 24(AX), BX; \
	MOVQ 48(AX), R8; \
	MOVQ 72(AX), R9; \
	MOVQ 96(AX), R10; \
	MOVQ 120(AX), R11; \
	MOVQ 144(AX), R12; \
	MOVQ 168(AX), R13; \
	MOVQ (AX), AX

// SWAP2 merges registers a and b with the unpack pair lo/hi: a gets lo, b
// gets hi.
#define SWAP2(lo, hi, a, b) \
	hi b, a, Y8; \
	lo b, a, a; \
	VMOVDQU Y8, b

// XORANCHOR XORs register k's lane pair of the anchor into reg; NOXOR
// stands in for it when there is no anchor.
#define NOXOR(k, reg)
#define XORANCHOR(k, reg) \
	VMOVDQU (16*k)(DI)(DX*8), X9; \
	VINSERTI128 $1, (128+16*k)(DI)(DX*8), Y9, Y9; \
	VPXOR Y9, reg, reg

// SCATTERSTEP transposes the 32 coordinates at DX into the planes.
#define SCATTERSTEP(xor) \
	VMOVDQU (0)(SI)(DX*8), X0; VINSERTI128 $1, (128)(SI)(DX*8), Y0, Y0; xor(0, Y0); VPSHUFB Y14, Y0, Y0; \
	VMOVDQU (16)(SI)(DX*8), X1; VINSERTI128 $1, (144)(SI)(DX*8), Y1, Y1; xor(1, Y1); VPSHUFB Y14, Y1, Y1; \
	VMOVDQU (32)(SI)(DX*8), X2; VINSERTI128 $1, (160)(SI)(DX*8), Y2, Y2; xor(2, Y2); VPSHUFB Y14, Y2, Y2; \
	VMOVDQU (48)(SI)(DX*8), X3; VINSERTI128 $1, (176)(SI)(DX*8), Y3, Y3; xor(3, Y3); VPSHUFB Y14, Y3, Y3; \
	VMOVDQU (64)(SI)(DX*8), X4; VINSERTI128 $1, (192)(SI)(DX*8), Y4, Y4; xor(4, Y4); VPSHUFB Y14, Y4, Y4; \
	VMOVDQU (80)(SI)(DX*8), X5; VINSERTI128 $1, (208)(SI)(DX*8), Y5, Y5; xor(5, Y5); VPSHUFB Y14, Y5, Y5; \
	VMOVDQU (96)(SI)(DX*8), X6; VINSERTI128 $1, (224)(SI)(DX*8), Y6, Y6; xor(6, Y6); VPSHUFB Y14, Y6, Y6; \
	VMOVDQU (112)(SI)(DX*8), X7; VINSERTI128 $1, (240)(SI)(DX*8), Y7, Y7; xor(7, Y7); VPSHUFB Y14, Y7, Y7; \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y0, Y1); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y2, Y3); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y4, Y5); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y6, Y7); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y0, Y2); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y1, Y3); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y4, Y6); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y5, Y7); \
	VPUNPCKLQDQ Y4, Y0, Y8; VMOVDQU Y8, (AX)(DX*1); \
	VPUNPCKHQDQ Y4, Y0, Y8; VMOVDQU Y8, (BX)(DX*1); \
	VPUNPCKLQDQ Y6, Y2, Y8; VMOVDQU Y8, (R8)(DX*1); \
	VPUNPCKHQDQ Y6, Y2, Y8; VMOVDQU Y8, (R9)(DX*1); \
	VPUNPCKLQDQ Y5, Y1, Y8; VMOVDQU Y8, (R10)(DX*1); \
	VPUNPCKHQDQ Y5, Y1, Y8; VMOVDQU Y8, (R11)(DX*1); \
	VPUNPCKLQDQ Y7, Y3, Y8; VMOVDQU Y8, (R12)(DX*1); \
	VPUNPCKHQDQ Y7, Y3, Y8; VMOVDQU Y8, (R13)(DX*1)

// func scatterPlanesAVX2(planes *[8][]byte, state, base *float64, n int)
TEXT ·scatterPlanesAVX2(SB), NOSPLIT, $0-32
	MOVQ planes+0(FP), AX
	MOVQ state+8(FP), SI
	MOVQ base+16(FP), DI
	MOVQ n+24(FP), CX
	LOADPLANES
	VMOVDQU planeShuf<>(SB), Y14
	XORQ DX, DX
	TESTQ DI, DI
	JNZ  sxorloop
sloop:
	CMPQ DX, CX
	JAE  sdone
	SCATTERSTEP(NOXOR)
	ADDQ $32, DX
	JMP  sloop
sxorloop:
	CMPQ DX, CX
	JAE  sdone
	SCATTERSTEP(XORANCHOR)
	ADDQ $32, DX
	JMP  sxorloop
sdone:
	VZEROUPPER
	RET

// STORE1 writes register k of a step (reg, whose low half is xreg) to
// the float64s at SI, XORing the anchor's in first when xor is XORANCHOR.
#define STORE1(k, reg, xreg, xor) \
	xor(k, reg); \
	VMOVDQU xreg, (16*k)(SI)(DX*8); \
	VEXTRACTI128 $1, reg, (128+16*k)(SI)(DX*8)

// GATHERSTEP transposes the planes at DX back into 32 coordinates.
#define GATHERSTEP(xor) \
	VMOVDQU (AX)(DX*1), Y0; \
	VMOVDQU (BX)(DX*1), Y1; \
	VMOVDQU (R8)(DX*1), Y2; \
	VMOVDQU (R9)(DX*1), Y3; \
	VMOVDQU (R10)(DX*1), Y4; \
	VMOVDQU (R11)(DX*1), Y5; \
	VMOVDQU (R12)(DX*1), Y6; \
	VMOVDQU (R13)(DX*1), Y7; \
	SWAP2(VPUNPCKLBW, VPUNPCKHBW, Y0, Y1); \
	SWAP2(VPUNPCKLBW, VPUNPCKHBW, Y2, Y3); \
	SWAP2(VPUNPCKLBW, VPUNPCKHBW, Y4, Y5); \
	SWAP2(VPUNPCKLBW, VPUNPCKHBW, Y6, Y7); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y0, Y2); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y1, Y3); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y4, Y6); \
	SWAP2(VPUNPCKLWD, VPUNPCKHWD, Y5, Y7); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y0, Y4); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y2, Y6); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y1, Y5); \
	SWAP2(VPUNPCKLDQ, VPUNPCKHDQ, Y3, Y7); \
	STORE1(0, Y0, X0, xor); \
	STORE1(1, Y4, X4, xor); \
	STORE1(2, Y2, X2, xor); \
	STORE1(3, Y6, X6, xor); \
	STORE1(4, Y1, X1, xor); \
	STORE1(5, Y5, X5, xor); \
	STORE1(6, Y3, X3, xor); \
	STORE1(7, Y7, X7, xor)

// func gatherPlanesAVX2(dst *float64, planes *[8][]byte, base *float64, n int)
TEXT ·gatherPlanesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), SI
	MOVQ planes+8(FP), AX
	MOVQ base+16(FP), DI
	MOVQ n+24(FP), CX
	LOADPLANES
	XORQ DX, DX
	TESTQ DI, DI
	JNZ  gxorloop
gloop:
	CMPQ DX, CX
	JAE  gdone
	GATHERSTEP(NOXOR)
	ADDQ $32, DX
	JMP  gloop
gxorloop:
	CMPQ DX, CX
	JAE  gdone
	GATHERSTEP(XORANCHOR)
	ADDQ $32, DX
	JMP  gxorloop
gdone:
	VZEROUPPER
	RET
