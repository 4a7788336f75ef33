package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// vgg11 builds the layer stack of model.VGG11 for 3×16×16 inputs and 10
// classes (that package imports this one, so its constructor is out of
// reach here).
func vgg11(rng *rand.Rand) *Model {
	var layers []Layer
	in := 3
	for i, w := range []int{4, 8, 16, 16, 32, 32, 32, 32} {
		layers = append(layers, NewConv2D(in, w, 3, 1, 1, rng), NewBatchNorm(w), NewReLU())
		if i == 0 || i == 1 || i == 3 || i == 7 {
			layers = append(layers, NewMaxPool2D(2))
		}
		in = w
	}
	layers = append(layers, NewFlatten(), NewDenseAct(in, 32, ActReLU, rng), NewDense(32, 10, rng))
	return NewModel(layers...)
}

// TestSteadyStateZeroAllocs is the allocation-regression guard for the
// training hot path: after one warm-up step sizes every workspace, a
// Forward+Backward step on each layer must allocate nothing. Shapes are kept
// small so the layers that split across the pool (Dense, Conv2D, Residual's
// convolutions) stay on their serial paths regardless of GOMAXPROCS (the
// parallel paths necessarily allocate goroutine closures); the layers that
// run on the caller (onCaller) are held to zero at two workers too.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name     string
		mk       func(rng *rand.Rand) Layer
		dims     []int
		onCaller bool
	}{
		{"dense", func(r *rand.Rand) Layer { return NewDense(16, 8, r) }, []int{16}, false},
		{"dense+relu", func(r *rand.Rand) Layer { return NewDenseAct(16, 8, ActReLU, r) }, []int{16}, false},
		{"dense+tanh", func(r *rand.Rand) Layer { return NewDenseAct(16, 8, ActTanh, r) }, []int{16}, false},
		{"conv2d", func(r *rand.Rand) Layer { return NewConv2D(2, 3, 3, 1, 1, r) }, []int{2, 8, 8}, false},
		{"conv1d", func(r *rand.Rand) Layer { return NewConv1D(2, 3, 5, 2, 2, r) }, []int{2, 16}, true},
		{"batchnorm", func(r *rand.Rand) Layer { return NewBatchNorm(3) }, []int{3, 4, 4}, true},
		{"relu", func(r *rand.Rand) Layer { return NewReLU() }, []int{12}, true},
		{"tanh", func(r *rand.Rand) Layer { return NewTanh() }, []int{12}, true},
		{"maxpool2d", func(r *rand.Rand) Layer { return NewMaxPool2D(2) }, []int{2, 6, 6}, true},
		{"maxpool1d", func(r *rand.Rand) Layer { return NewMaxPool1D(2) }, []int{3, 8}, true},
		{"globalavgpool", func(r *rand.Rand) Layer { return NewGlobalAvgPool() }, []int{3, 4, 4}, true},
		{"residual", func(r *rand.Rand) Layer { return NewResidual(2, 4, 2, r) }, []int{2, 6, 6}, false},
		{"flatten", func(r *rand.Rand) Layer { return NewFlatten() }, []int{2, 3, 3}, true},
	}
	steadyAllocs := func(t *testing.T, mk func(rng *rand.Rand) Layer, dims []int) {
		layer := mk(rand.New(rand.NewSource(61)))
		x := batchInput(rand.New(rand.NewSource(62)), 4, dims)
		// Warm-up step: grows every workspace to its steady-state size.
		out := layer.Forward(x, true)
		g := tensor.Randn(rand.New(rand.NewSource(63)), 0, 1, out.Shape()...)
		layer.Backward(g)

		allocs := testing.AllocsPerRun(10, func() {
			layer.Forward(x, true)
			layer.Backward(g)
		})
		if allocs != 0 {
			t.Errorf("steady-state Forward+Backward allocates %v times per step, want 0", allocs)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { steadyAllocs(t, tc.mk, tc.dims) })
	}
	// Two workers with the split threshold lowered, at which every onCaller
	// layer but Flatten and Conv1D would split these shapes if it still
	// fanned out.
	t.Run("two workers", func(t *testing.T) {
		workers, minWork := parallel.SetWorkers(2), parallel.SetMinWork(32)
		defer func() { parallel.SetWorkers(workers); parallel.SetMinWork(minWork) }()
		for _, tc := range cases {
			if tc.onCaller {
				t.Run(tc.name, func(t *testing.T) { steadyAllocs(t, tc.mk, tc.dims) })
			}
		}
	})
	// A VGG11 training step and an inference forward at the round
	// benchmark's shape (batch 64, 3×16×16 inputs), on one worker so the
	// serial kernels are what is measured: every convolution there runs
	// more than one tile.
	t.Run("vgg11", func(t *testing.T) {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		m := vgg11(rand.New(rand.NewSource(67)))
		x := batchInput(rand.New(rand.NewSource(68)), 64, []int{3, 16, 16})
		labels := make([]int, 64)
		for i := range labels {
			labels[i] = i % 10
		}
		var loss SoftmaxCrossEntropy
		var res LossResult
		step := func() {
			if err := loss.EvalInto(&res, m.Forward(x, true), labels); err != nil {
				t.Fatal(err)
			}
			m.BackwardParams(res.Grad)
			m.Forward(x, false)
		}
		step()
		for _, l := range m.layers {
			if c, ok := l.(*Conv2D); ok && c.tileRows() >= c.g.batch*c.g.oh*c.g.ow {
				t.Errorf("%s runs one tile, want several", c.Name())
			}
		}
		if raceEnabled {
			t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
		}
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("steady-state VGG11 step and inference forward allocate %v times, want 0", allocs)
		}
	})
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
