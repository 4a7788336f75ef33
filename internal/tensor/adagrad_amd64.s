// Vector Adagrad step (see AdagradStep in adagrad.go).
//
// Bit-identity contract: each element is one lane and goes through the
// scalar loop's operations in its order, each rounded once — G = g·g + G,
// then p = p − (lr·g) / √(G + eps) — with the operands in the order the
// compiler emits for the scalar loop (the first source of each add and
// multiply is the one the scalar code keeps in its register), so even a
// NaN's payload comes out the same. VSQRTPD and VDIVPD are correctly
// rounded like SQRTSD and DIVSD. The kernel covers n elements, a multiple
// of 4; the caller runs the tail. It stays in YMM on AVX-512 hosts too: the
// step is bound by VSQRTPD/VDIVPD throughput, which ZMM lanes do not raise.
//
// Registers: Y0 g, Y1 G, Y2 √(G + eps), Y3 the step, Y4 p, Y6 lr, Y7 eps.

#include "textflag.h"

// func adagradAVX2(p, grad, acc *float64, n int, lr, eps float64)
TEXT ·adagradAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y6
	VBROADCASTSD eps+40(FP), Y7
	SHRQ $2, CX
	JZ   y256done
y256loop:
	VMOVUPD (SI), Y0
	VMULPD  Y0, Y0, Y1
	VADDPD  (DX), Y1, Y1
	VMOVUPD Y1, (DX)
	VADDPD  Y7, Y1, Y2
	VSQRTPD Y2, Y2
	VMULPD  Y0, Y6, Y3
	VDIVPD  Y2, Y3, Y3
	VMOVUPD (DI), Y4
	VSUBPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  y256loop
y256done:
	VZEROUPPER
	RET
