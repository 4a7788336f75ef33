//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD micro kernels; the matmuls stay on the naive
// row kernels (gemmBlocked falls back before ever reaching these stubs).
const haveAVX2 = false

func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int) {
	panic("tensor: gemmNN4x8 without AVX2")
}

func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int) {
	panic("tensor: gemmTA4x8 without AVX2")
}
