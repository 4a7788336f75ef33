package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// restorePool resets compute-pool configuration mutated by a test.
func restorePool(t *testing.T) {
	t.Helper()
	prevW, prevM := parallel.Workers(), parallel.MinWork()
	t.Cleanup(func() {
		parallel.SetWorkers(prevW)
		parallel.SetMinWork(prevM)
	})
}

// TestLayersPoolParallelBitIdentical is the property test behind the
// pool's determinism guarantee: a Forward+Backward step of every layer that
// splits across the pool (Conv2D's tiles, Dense's GEMMs and bias+activation
// pass) must be bit-identical with the pool sized 1 (serial) and sized past
// the chunk count. Batch sizes cover the odd shapes — one item (always
// serial), batch == workers, prime batch.
func TestLayersPoolParallelBitIdentical(t *testing.T) {
	restorePool(t)
	parallel.SetMinWork(32) // force parallel paths on test-sized shapes
	cases := []struct {
		name string
		mk   func(rng *rand.Rand) Layer
		dims []int
	}{
		{"conv2d", func(r *rand.Rand) Layer { return NewConv2D(3, 5, 3, 1, 1, r) }, []int{3, 9, 7}},
		{"dense+relu", func(r *rand.Rand) Layer { return NewDenseAct(11, 9, ActReLU, r) }, []int{11}},
		{"dense+tanh", func(r *rand.Rand) Layer { return NewDenseAct(11, 9, ActTanh, r) }, []int{11}},
	}
	batches := []int{1, 3, 4, 7, 13}
	for _, tc := range cases {
		for _, batch := range batches {
			x := batchInput(rand.New(rand.NewSource(17)), batch, tc.dims)

			// Serial reference.
			parallel.SetWorkers(1)
			ref := tc.mk(rand.New(rand.NewSource(5)))
			refOut := ref.Forward(x, true)
			g := tensor.Randn(rand.New(rand.NewSource(6)), 0, 1, refOut.Shape()...)
			wantOut := refOut.Clone()
			wantGrad := ref.Backward(g).Clone()
			wantParamGrads := cloneAll(ref.Grads())

			for _, workers := range []int{2, 4, 7} {
				parallel.SetWorkers(workers)
				layer := tc.mk(rand.New(rand.NewSource(5)))
				// Warm-up sizes the workspaces, then a second step runs on
				// warm buffers — both must match the serial reference.
				for step := 0; step < 2; step++ {
					gotOut := layer.Forward(x, true)
					gotGrad := layer.Backward(g)
					if !equalData(gotOut.Data(), wantOut.Data()) {
						t.Fatalf("%s batch=%d workers=%d step=%d: forward diverges from serial",
							tc.name, batch, workers, step)
					}
					if !equalData(gotGrad.Data(), wantGrad.Data()) {
						t.Fatalf("%s batch=%d workers=%d step=%d: input grad diverges from serial",
							tc.name, batch, workers, step)
					}
					for pi, pg := range layer.Grads() {
						if !equalData(pg.Data(), wantParamGrads[pi].Data()) {
							t.Fatalf("%s batch=%d workers=%d step=%d: param grad %d diverges from serial",
								tc.name, batch, workers, step, pi)
						}
					}
					// The serial reference ran one step; grads of stateless
					// accumulation layers are recomputed each Backward, so
					// repeating the step must reproduce them exactly.
				}
			}
		}
	}
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func equalData(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestModelPoolParallelBitIdentical trains a small conv+bn+pool+dense model
// for a few steps under serial and oversized pools and requires bit-equal
// parameter vectors — the end-to-end form of the determinism guarantee.
func TestModelPoolParallelBitIdentical(t *testing.T) {
	restorePool(t)
	parallel.SetMinWork(16)

	run := func() []float64 {
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
			out := m.Forward(x, true)
			res, err := loss.Eval(out, labels)
			if err != nil {
				t.Fatal(err)
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
		return m.StateVector()
	}

	parallel.SetWorkers(1)
	want := run()
	for _, workers := range []int{2, 4, 8} {
		parallel.SetWorkers(workers)
		got := run()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: state length %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: state[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}
