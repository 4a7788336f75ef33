//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD micro kernels: every matmul and Adagrad
// step stays on the scalar code, which checks the tier before reaching these
// stubs.
const hostISA = isaScalar

func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int) { panic("tensor: no AVX2") }

func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int) { panic("tensor: no AVX2") }

func gemmNN8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmNN4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmTA8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmTA4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func adagradAVX2(p, grad, acc *float64, n int, lr, eps float64) { panic("tensor: no AVX2") }
