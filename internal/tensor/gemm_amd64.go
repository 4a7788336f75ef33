package tensor

// AVX2 micro-kernel bindings. See gemm_amd64.s for the bit-identity
// contract; blocked.go drives these per 4×8 output tile.

//go:noescape
func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int)

//go:noescape
func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 gates the blocked-GEMM fast path: the micro kernels need AVX2 and
// an OS that saves YMM state across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}
