package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// kt is the kernel harness over the tensor kernels' tier loop and the
// compute pool, whose minimum work is lowered so test-sized shapes split.
var kt = kerneltest.Env{Tiers: tensor.ForEachKernelISA, SetWorkers: parallel.SetWorkers, SetMinWork: parallel.SetMinWork, MinWork: 16}

// poolCase is a layer of the pool-parallel rows, run at each batch size on
// an input of shape [batch, dims...].
type poolCase struct {
	name    string
	mk      func() Layer
	batches []int
	dims    []int
}

// poolRow holds a Forward+Backward step of each case, on every tier with
// the pool sized 1, 2, 4 and 7, and the inference Forwards after it, to one
// serial step. A second step runs on warm buffers and must reproduce it,
// since the layers recompute their gradients each Backward rather than
// accumulate them.
func poolRow(t *testing.T, cases []poolCase) {
	t.Helper()
	kt.WithPools(1, 2, 4, 7).Run(t, func(emit func(kerneltest.Case)) {
		for _, tc := range cases {
			for _, batch := range tc.batches {
				x := batchInput(rand.New(rand.NewSource(17)), batch, tc.dims)
				g := tensor.Randn(rand.New(rand.NewSource(6)), 0, 1, tc.mk().Forward(x, true).Shape()...)
				for i := range g.Data() {
					if i%4 == 0 { // exact zeros: the zero-skip convention under every split
						g.Data()[i] = 0
					}
				}
				for steps := 1; steps <= 2; steps++ {
					emit(kerneltest.Case{Name: fmt.Sprintf("%s batch=%d steps=%d", tc.name, batch, steps),
						Ref: func([][]float64) [][]float64 { return layerStep(tc.mk, x, g, 1) },
						Run: func([][]float64) ([][]float64, int) { return layerStep(tc.mk, x, g, steps), -1 }})
				}
			}
		}
	})
}

// TestLayersPoolParallelBitIdentical is the property test behind the
// pool's determinism guarantee: a Forward+Backward step of every layer that
// splits across the pool (Conv2D's tiles, split by batch item, and its
// weight-gradient slabs, by tap; Dense's GEMMs and bias+activation pass)
// must be bit-identical, on every tier, with the pool sized 1 (serial) and
// sized past the chunk count, and so must the inference Forwards. Batch
// sizes cover the odd shapes — one item (always serial), batch == workers,
// prime batch.
func TestLayersPoolParallelBitIdentical(t *testing.T) {
	poolRow(t, []poolCase{
		{"conv2d", func() Layer { return NewConv2D(3, 5, 3, 1, 1, rand.New(rand.NewSource(5))) }, []int{1, 3, 4, 7, 13}, []int{3, 9, 7}},
		{"dense+relu", func() Layer { return NewDenseAct(11, 9, ActReLU, rand.New(rand.NewSource(5))) }, []int{1, 3, 4, 7, 13}, []int{11}},
		{"dense+tanh", func() Layer { return NewDenseAct(11, 9, ActTanh, rand.New(rand.NewSource(5))) }, []int{1, 3, 4, 7, 13}, []int{11}},
	})
}

// TestConv2DDirectPoolParallelBitIdentical pins Conv2D's pool determinism
// at the 3-to-16-channel geometry (batch 5, 12×10): the training step (tiles
// split by batch item, weight-gradient slabs by tap) and the inference
// Forwards must be bit-identical to the serial run at every pool size. The
// name dates from the removed direct inference path.
func TestConv2DDirectPoolParallelBitIdentical(t *testing.T) {
	poolRow(t, []poolCase{
		{"conv2d 3→16", func() Layer { return NewConv2D(3, 16, 3, 1, 1, rand.New(rand.NewSource(41))) }, []int{5}, []int{3, 12, 10}},
	})
}

// TestModelPoolParallelBitIdentical trains a small conv+bn+pool+dense model
// for a few steps on every tier under serial and oversized pools and
// requires bit-equal parameter vectors — the end-to-end form of the
// determinism guarantee.
func TestModelPoolParallelBitIdentical(t *testing.T) {
	run := func([][]float64) ([][]float64, int) {
		rng := rand.New(rand.NewSource(33))
		m := NewModel(
			NewConv2D(2, 4, 3, 1, 1, rng),
			NewBatchNorm(4),
			NewReLU(),
			NewMaxPool2D(2),
			NewFlatten(),
			NewDense(4*4*4, 5, rng),
		)
		x := tensor.Randn(rand.New(rand.NewSource(34)), 0, 1, 6, 2, 8, 8)
		labels := []int{0, 1, 2, 3, 4, 0}
		var loss SoftmaxCrossEntropy
		for step := 0; step < 3; step++ {
			res, err := loss.Eval(m.Forward(x, true), labels)
			if err != nil {
				panic(err)
			}
			m.Backward(res.Grad)
			params, grads := m.Params(), m.Grads()
			for i, p := range params {
				pd, gd := p.Data(), grads[i].Data()
				for j := range pd {
					pd[j] -= 0.01 * gd[j]
				}
			}
		}
		return [][]float64{m.StateVector()}, -1
	}
	kt.WithPools(1, 2, 4, 8).Run(t, func(emit func(kerneltest.Case)) { emit(kerneltest.Case{Name: "model", Run: run}) })
}
