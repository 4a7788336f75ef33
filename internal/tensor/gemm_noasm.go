//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD micro kernels: every matmul, Adagrad step,
// plane transpose, fixed-point fold, tap move and pointwise layer kernel
// stays on the scalar code, which checks the tier before reaching these
// stubs.
const hostISA = isaScalar

func gemmNN4x8(c, a, b *float64, k, lda, ldb, ldc int) { panic("tensor: no AVX2") }

func gemmTA4x8(c, a, b *float64, k, lda, ldb, ldc int) { panic("tensor: no AVX2") }

func gemmNN8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmNN4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmTA8x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func gemmTA4x8z(c, a, b *float64, k, lda, ldb, ldc int, mask uint64) { panic("tensor: no AVX-512") }

func adagradAVX2(p, grad, acc *float64, n int, lr, eps float64) { panic("tensor: no AVX2") }

func scatterPlanesAVX2(planes *[8][]byte, state, base *float64, n int) { panic("tensor: no AVX2") }

func gatherPlanesAVX2(dst *float64, planes *[8][]byte, base *float64, n int) {
	panic("tensor: no AVX2")
}

func fixedFoldAVX512(hi, lo *uint64, state *float64, n int, scale float64) int {
	panic("tensor: no AVX-512")
}

func fixedFinalizeAVX512(out *float64, hi, lo *uint64, bad *uint8, n int, div float64) int {
	panic("tensor: no AVX-512")
}

func gatherTapsAVX512(dst, src *float64, offs *int, n, lim int) int { panic("tensor: no AVX-512") }

func scatterAddRowsAVX512(dst, src *float64, offs *int, rows, width, lim int) int {
	panic("tensor: no AVX-512")
}

func bnNormalizeAVX512(od, xd, mean, invStd, gamma, beta *float64, items, C, spatial int) {
	panic("tensor: no AVX-512")
}

func bnGradInAVX512(gid, god, xd, mean, invStd, k, dbeta, dgamma *float64, items, C, spatial int) {
	panic("tensor: no AVX-512")
}

func keepPositiveAVX512(dst, src, sign *float64, n int) { panic("tensor: no AVX-512") }

func maxPool2x2AVX512(dst *float64, argmax *int, src *float64, blocks, chunks, w2, base int, t *poolTables) {
	panic("tensor: no AVX-512")
}
