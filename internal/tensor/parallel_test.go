package tensor

import (
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/parallel"
)

// kt is the kernel harness over this package's tier loop and compute pool,
// whose minimum work is lowered so test-sized shapes split.
var kt = kerneltest.Env{Tiers: ForEachKernelISA, SetWorkers: parallel.SetWorkers, SetMinWork: parallel.SetMinWork, MinWork: 64}

// serial is kt at one pool size, for the kernels that never call the pool.
var serial = kt.WithPools(1)

// TestMatMulKernelsPoolParallelBitIdentical is the property test for the
// pool migration: each exported matmul must produce bit-identical output
// with the pool sized 1 (serial) and sized past the chunk count, across odd
// shapes, over a stale output it must fully overwrite.
func TestMatMulKernelsPoolParallelBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 5, 4},    // single row: always one chunk
		{3, 200, 1},  // m < grain for the n=1 column case
		{4, 9, 8},    // m == workers
		{7, 11, 13},  // all prime
		{31, 17, 29}, // prime, larger than workers
		{64, 33, 12}, // even split
	}
	kt.WithPools(1, 2, 4, 7).Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(7, kerneltest.HardwareNaN)
		for _, s := range shapes {
			for _, layout := range gemmLayouts {
				a, b := g.Normal(s[0]*s[1]), g.Normal(s[1]*s[2])
				emit(tensorCase(gemmCase(g, "exported", s[0], s[1], s[2], layout, a, b), s[0], s[1], s[2], layout, a, b))
			}
		}
	})
}
