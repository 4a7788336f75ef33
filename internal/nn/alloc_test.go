package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestSteadyStateZeroAllocs is the allocation-regression guard for the
// training hot path: after one warm-up step sizes every workspace, a
// Forward+Backward step on each layer must allocate nothing. Shapes are kept
// small so the kernels stay on their serial paths regardless of GOMAXPROCS
// (the parallel paths necessarily allocate goroutine closures).
func TestSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		mk   func(rng *rand.Rand) Layer
		dims []int
	}{
		{"dense", func(r *rand.Rand) Layer { return NewDense(16, 8, r) }, []int{16}},
		{"dense+relu", func(r *rand.Rand) Layer { return NewDenseAct(16, 8, ActReLU, r) }, []int{16}},
		{"dense+tanh", func(r *rand.Rand) Layer { return NewDenseAct(16, 8, ActTanh, r) }, []int{16}},
		{"conv2d", func(r *rand.Rand) Layer { return NewConv2D(2, 3, 3, 1, 1, r) }, []int{2, 8, 8}},
		{"conv1d", func(r *rand.Rand) Layer { return NewConv1D(2, 3, 5, 2, 2, r) }, []int{2, 16}},
		{"batchnorm", func(r *rand.Rand) Layer { return NewBatchNorm(3) }, []int{3, 4, 4}},
		{"relu", func(r *rand.Rand) Layer { return NewReLU() }, []int{12}},
		{"tanh", func(r *rand.Rand) Layer { return NewTanh() }, []int{12}},
		{"maxpool2d", func(r *rand.Rand) Layer { return NewMaxPool2D(2) }, []int{2, 6, 6}},
		{"maxpool1d", func(r *rand.Rand) Layer { return NewMaxPool1D(2) }, []int{3, 8}},
		{"globalavgpool", func(r *rand.Rand) Layer { return NewGlobalAvgPool() }, []int{3, 4, 4}},
		{"residual", func(r *rand.Rand) Layer { return NewResidual(2, 4, 2, r) }, []int{2, 6, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layer := tc.mk(rand.New(rand.NewSource(61)))
			x := batchInput(rand.New(rand.NewSource(62)), 4, tc.dims)
			// Warm-up step: grows every workspace to its steady-state size.
			out := layer.Forward(x, true)
			g := tensor.Randn(rand.New(rand.NewSource(63)), 0, 1, out.Shape()...)
			layer.Backward(g)

			allocs := testing.AllocsPerRun(10, func() {
				layer.Forward(x, true)
				layer.Backward(g)
			})
			if allocs != 0 {
				t.Errorf("%s: steady-state Forward+Backward allocates %v times per step, want 0",
					tc.name, allocs)
			}
		})
	}
	// The loss a training step evaluates into its one result, ragged last
	// batch included.
	t.Run("loss", func(t *testing.T) {
		var loss SoftmaxCrossEntropy
		var res LossResult
		full, ragged := batchInput(rand.New(rand.NewSource(65)), 4, []int{5}), batchInput(rand.New(rand.NewSource(66)), 3, []int{5})
		labels := []int{4, 0, 2, 1}
		step := func() {
			for _, x := range []*tensor.Tensor{full, ragged} {
				if err := loss.EvalInto(&res, x, labels[:x.Dim(0)]); err != nil {
					t.Fatal(err)
				}
			}
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("steady-state EvalInto allocates %v times per step, want 0", allocs)
		}
		// A reused result reads what a fresh Eval returns.
		want, err := loss.Eval(ragged, labels[:3])
		if err != nil {
			t.Fatal(err)
		}
		compareBitwise(t, "reused probs", res.Probs, want.Probs)
		compareBitwise(t, "reused grad", res.Grad, want.Grad)
		if res.Mean != want.Mean || len(res.PerSample) != 3 {
			t.Errorf("reused result: mean %v over %d samples, want %v over 3", res.Mean, len(res.PerSample), want.Mean)
		}
	})
}

// TestMatMulSteadyStateZeroAllocs guards the Into-variant matmul kernels on
// their serial paths.
func TestMatMulSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := tensor.Randn(rng, 0, 1, 8, 12)
	b := tensor.Randn(rng, 0, 1, 12, 10)
	bt := tensor.Randn(rng, 0, 1, 10, 12)
	at := tensor.Randn(rng, 0, 1, 12, 8)
	out := tensor.New(8, 10)

	allocs := testing.AllocsPerRun(10, func() {
		if err := tensor.MatMulInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		if err := tensor.MatMulTransBInto(out, a, bt); err != nil {
			t.Fatal(err)
		}
		if err := tensor.MatMulTransAInto(out, at, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state matmul kernels allocate %v times per run, want 0", allocs)
	}
}
