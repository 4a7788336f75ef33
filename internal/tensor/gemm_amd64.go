package tensor

// Micro-kernel bindings: the AVX2 tier in gemm_amd64.s, the AVX-512 tier in
// gemm512_amd64.s, the Adagrad steps in adagrad_amd64.s, the byte-plane
// transposes in planes_amd64.s, the fixed-point fold and finalize in
// fixed_amd64.s, the convolution's tap gather and scatter-add in
// taps_amd64.s and the BatchNorm, ReLU and 2×2 max-pool kernels in
// pointwise_amd64.s. Each file states its bit-identity contract; blocked.go,
// adagrad.go, planes.go, fixed.go, taps.go and pointwise.go drive them.

//go:noescape
func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int)

//go:noescape
func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int)

//go:noescape
func gemmNN8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)

//go:noescape
func gemmNN4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)

//go:noescape
func gemmTA8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)

//go:noescape
func gemmTA4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64)

//go:noescape
func adagradAVX2(p, grad, acc *float64, n int, lr, eps float64)

//go:noescape
func scatterPlanesAVX2(planes *[8][]byte, state, base *float64, n int)

//go:noescape
func gatherPlanesAVX2(dst *float64, planes *[8][]byte, base *float64, n int)

//go:noescape
func fixedFoldAVX512(hi, lo *uint64, state *float64, n int, scale float64) int

//go:noescape
func fixedFinalizeAVX512(out *float64, hi, lo *uint64, bad *uint8, n int, div float64) int

//go:noescape
func gatherTapsAVX512(dst, src *float64, offs *int, n, lim int) int

//go:noescape
func scatterAddRowsAVX512(dst, src *float64, offs *int, rows, width, lim int) int

//go:noescape
func bnNormalizeAVX512(od, xd, mean, invStd, gamma, beta *float64, items, C, spatial int)

//go:noescape
func bnGradInAVX512(gid, god, xd, mean, invStd, k, dbeta, dgamma *float64, items, C, spatial int)

//go:noescape
func keepPositiveAVX512(dst, src, sign *float64, n int)

//go:noescape
func maxPool2x2AVX512(dst *float64, argmax *int, src *float64, blocks, chunks, w2, base int, t *poolTables)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

var hostISA = detectISA()

// detectISA returns the widest tier the CPU and the OS both support: AVX2
// needs the YMM state saved across context switches, AVX-512 (foundation
// and DQ, for VFPCLASSPD) the opmask and both halves of the ZMM state as
// well.
func detectISA() isa {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return isaScalar
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c1&osxsaveAndAVX != osxsaveAndAVX {
		return isaScalar
	}
	xcr0, _ := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	const xmmYMM, opmaskZMM = 1<<1 | 1<<2, 1<<5 | 1<<6 | 1<<7
	switch {
	case xcr0&xmmYMM != xmmYMM || b7&(1<<5) == 0: // AVX2
		return isaScalar
	case xcr0&opmaskZMM != opmaskZMM || b7&(1<<16|1<<17) != 1<<16|1<<17: // AVX512F, AVX512DQ
		return isaAVX2
	}
	return isaAVX512
}
