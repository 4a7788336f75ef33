package tensor

// isa is a SIMD tier of the micro kernels. Each tier computes the same bits
// as the scalar code; a wider one only computes them in fewer instructions.
type isa uint8

const (
	isaScalar isa = iota
	isaAVX2
	isaAVX512
)

var isaNames = [...]string{isaScalar: "scalar", isaAVX2: "avx2", isaAVX512: "avx512"}

// kernelISA is the tier the matmuls and AdagradStep dispatch to: the host's
// widest. Only tests lower it, to hold every tier the host can run to the
// scalar code; concurrent mutation with in-flight kernels is not supported.
var kernelISA = hostISA

// KernelISA names the tier the kernels run at ("avx512", "avx2" or
// "scalar"). Timings taken at different tiers are not comparable.
func KernelISA() string { return isaNames[kernelISA] }
