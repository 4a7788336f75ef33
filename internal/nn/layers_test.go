package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bn := NewBatchNorm(3)
	// Feed several training batches with mean 2, std 3.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(rng, 2, 3, 8, 3)
		bn.Forward(x, true)
	}
	// Training-mode outputs are normalized per batch: mean ~0.
	x := tensor.Randn(rng, 2, 3, 64, 3)
	out := bn.Forward(x, true)
	if m := out.Mean(); math.Abs(m) > 0.05 {
		t.Fatalf("train-mode output mean = %v", m)
	}
	// Eval mode uses running statistics: a batch from the same
	// distribution also normalizes to ~0 mean, ~1 std.
	out = bn.Forward(x, false)
	if m := out.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode output mean = %v", m)
	}
	// Running variance is an EMA of per-batch variances (small batches
	// underestimate σ²), so the normalized output variance sits near but not
	// exactly at 1.
	if v := out.Variance(); v < 0.5 || v > 1.6 {
		t.Fatalf("eval-mode output variance = %v", v)
	}
}

func TestBatchNormNegativeRunningVarianceClamped(t *testing.T) {
	bn := NewBatchNorm(2)
	_, variance := bn.RunningStats()
	variance.Set(-0.5, 0) // aggregation/perturbation artifact
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out := bn.Forward(x, false)
	for _, v := range out.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("negative running variance produced %v", v)
		}
	}
}

func TestReLUZeroesNegatives(t *testing.T) {
	r := NewReLU()
	x := tensor.MustFromSlice([]float64{-1, 0, 2}, 1, 3)
	out := r.Forward(x, true)
	want := []float64{0, 0, 2}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("relu[%d] = %v", i, out.Data()[i])
		}
	}
	// Input is not mutated.
	if x.Data()[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 0, 1, 2, 3, 4, 5)
	out := f.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	back := f.Backward(out)
	if back.Dims() != 4 || back.Dim(3) != 5 {
		t.Fatalf("unflatten shape %v", back.Shape())
	}
}

func TestConv2DOutSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(1, 1, 3, 2, 1, rng)
	oh, ow := c.OutSize(16, 16)
	if oh != 8 || ow != 8 {
		t.Fatalf("OutSize = %dx%d", oh, ow)
	}
}

func TestConv1DOutLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv1D(1, 4, 16, 4, 6, rng)
	if got := c.OutLen(256); got != 64 {
		t.Fatalf("OutLen = %d", got)
	}
}

func TestLayerNames(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layers := []Layer{
		NewDense(3, 4, rng),
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewConv1D(1, 2, 3, 1, 1, rng),
		NewBatchNorm(4),
		NewReLU(),
		NewTanh(),
		NewFlatten(),
		NewMaxPool2D(2),
		NewMaxPool1D(2),
		NewGlobalAvgPool(),
		NewResidual(2, 2, 1, rng),
	}
	seen := make(map[string]bool)
	for _, l := range layers {
		name := l.Name()
		if name == "" {
			t.Fatalf("%T has empty name", l)
		}
		if seen[name] {
			t.Fatalf("duplicate layer name %q", name)
		}
		seen[name] = true
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	tests := []struct {
		name  string
		layer Layer
	}{
		{"dense", NewDense(2, 2, rand.New(rand.NewSource(1)))},
		{"conv2d", NewConv2D(1, 1, 3, 1, 1, rand.New(rand.NewSource(1)))},
		{"conv1d", NewConv1D(1, 1, 3, 1, 1, rand.New(rand.NewSource(1)))},
		{"tanh", NewTanh()},
		{"batchnorm", NewBatchNorm(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s Backward before Forward did not panic", tt.name)
				}
			}()
			tt.layer.Backward(tensor.New(1, 2))
		})
	}
}

func TestForwardShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tests := []struct {
		name  string
		layer Layer
		input *tensor.Tensor
	}{
		{"dense wrong width", NewDense(4, 2, rng), tensor.New(1, 3)},
		{"conv2d wrong channels", NewConv2D(3, 1, 3, 1, 1, rng), tensor.New(1, 2, 8, 8)},
		{"conv1d wrong rank", NewConv1D(1, 1, 3, 1, 1, rng), tensor.New(2, 4)},
		{"batchnorm wrong channels", NewBatchNorm(3), tensor.New(2, 4)},
		{"maxpool2d wrong rank", NewMaxPool2D(2), tensor.New(2, 4)},
		{"gap wrong rank", NewGlobalAvgPool(), tensor.New(2, 4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tt.name)
				}
			}()
			tt.layer.Forward(tt.input, true)
		})
	}
}

// Property: StateVector/SetStateVector is an exact round trip for random
// states.
func TestQuickStateVectorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(
			NewDense(6, 5, rng),
			NewBatchNorm(5),
			NewTanh(),
			NewDense(5, 3, rng),
		)
		state := make([]float64, m.NumState())
		for i := range state {
			state[i] = rng.NormFloat64()
		}
		if err := m.SetStateVector(state); err != nil {
			return false
		}
		got := m.StateVector()
		for i := range state {
			if got[i] != state[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: forward passes are deterministic given fixed parameters and
// inputs.
func TestQuickForwardDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(
			NewConv2D(1, 2, 3, 1, 1, rng),
			NewReLU(),
			NewFlatten(),
			NewDense(2*4*4, 3, rng),
		)
		x := tensor.Randn(rng, 0, 1, 2, 1, 4, 4)
		a := m.Forward(x, false).Clone()
		b := m.Forward(x, false)
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualShapePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewResidual(4, 4, 1, rng)
	x := tensor.Randn(rng, 0, 1, 2, 4, 8, 8)
	out := r.Forward(x, true)
	if !out.SameShape(x) {
		t.Fatalf("identity residual changed shape: %v", out.Shape())
	}
	r2 := NewResidual(4, 8, 2, rng)
	out2 := r2.Forward(x, true)
	if out2.Dim(1) != 8 || out2.Dim(2) != 4 {
		t.Fatalf("projection residual shape: %v", out2.Shape())
	}
}
