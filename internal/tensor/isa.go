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

// kernelISA is the tier the matmuls, AdagradStep, the plane transposes, the
// fixed-point kernels, the tap moves and the pointwise layer kernels of
// pointwise_amd64.s (BatchNorm, ReLU, 2×2 max pooling) dispatch to: the
// host's widest. Only tests lower it, to hold every tier the host can run to
// the scalar code; concurrent mutation with in-flight kernels is not
// supported.
var kernelISA = hostISA

// KernelISA names the tier the kernels run at ("avx512", "avx2" or
// "scalar"). Timings taken at different tiers are not comparable.
func KernelISA() string { return isaNames[kernelISA] }

// ForEachKernelISA calls f once per tier the host can run, scalar first,
// with every kernel dispatching to that tier, and then restores the host's
// tier. It lets the packages that drive the plane, fixed-point, tap and
// pointwise kernels hold each tier to their scalar loops; like the tier
// switch itself, it must not run beside in-flight kernels.
func ForEachKernelISA(f func(name string)) {
	prev := kernelISA
	defer func() { kernelISA = prev }()
	for tier := isaScalar; tier <= hostISA; tier++ {
		kernelISA = tier
		f(isaNames[tier])
	}
}
