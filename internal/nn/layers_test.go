package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kerneltest"
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
	if m, _ := meanVariance(out); math.Abs(m) > 0.05 {
		t.Fatalf("train-mode output mean = %v", m)
	}
	// Eval mode uses running statistics: a batch from the same
	// distribution also normalizes to ~0 mean, ~1 std.
	out = bn.Forward(x, false)
	m, v := meanVariance(out)
	if math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode output mean = %v", m)
	}
	// Running variance is an EMA of per-batch variances (small batches
	// underestimate σ²), so the normalized output variance sits near but not
	// exactly at 1.
	if v < 0.5 || v > 1.6 {
		t.Fatalf("eval-mode output variance = %v", v)
	}
}

// meanVariance returns the mean and the population variance of x's elements.
func meanVariance(x *tensor.Tensor) (mean, variance float64) {
	for _, v := range x.Data() {
		mean += v
	}
	mean /= float64(x.Len())
	for _, v := range x.Data() {
		variance += (v - mean) * (v - mean)
	}
	return mean, variance / float64(x.Len())
}

func TestBatchNormNegativeRunningVarianceClamped(t *testing.T) {
	bn := NewBatchNorm(2)
	_, variance := bn.RunningStats()
	variance.Data()[0] = -0.5 // aggregation/perturbation artifact
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out := bn.Forward(x, false)
	for _, v := range out.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("negative running variance produced %v", v)
		}
	}
}

// selectSpecials are the values the branch-free selects must treat exactly
// as the branchy loops they replace: both zeros, NaNs with payloads of
// either sign, both infinities and both smallest subnormals.
var selectSpecials = []float64{
	-1, 2, math.Copysign(0, -1), 0,
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff4_0000_0000_0001),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// refReLU is the branchy reference for ReLU's masked select: v where
// v > 0, +0 otherwise.
func refReLU(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// TestReLUZeroesNegatives holds the ReLU forward and backward to the branchy
// reference, bit for bit, on every special value: each is paired with every
// other as the gradient, so NaN payloads, signed zeros and subnormals pass
// through or become +0 exactly where the reference's do.
func TestReLUZeroesNegatives(t *testing.T) {
	n := len(selectSpecials)
	xd, gd := make([]float64, n*n), make([]float64, n*n)
	for i, v := range selectSpecials {
		for j, g := range selectSpecials {
			xd[i*n+j], gd[i*n+j] = v, g
		}
	}
	x, g := tensor.MustFromSlice(xd, n, n), tensor.MustFromSlice(gd, n, n)
	r := NewReLU()
	out, gin := r.Forward(x, true).Data(), r.Backward(g).Data()
	for i, v := range xd {
		wantGin := 0.0
		if v > 0 {
			wantGin = gd[i]
		}
		if math.Float64bits(out[i]) != math.Float64bits(refReLU(v)) || math.Float64bits(gin[i]) != math.Float64bits(wantGin) {
			t.Errorf("relu(%v) = %v, grad(%v) = %v; want %v, %v", v, out[i], gd[i], gin[i], refReLU(v), wantGin)
		}
	}
	if math.Float64bits(x.Data()[0]) != math.Float64bits(-1) {
		t.Fatal("ReLU mutated its input")
	}
}

// refMaxPool2D is the branchy reference for MaxPool2D's window select: a
// window keeps its first strict maximum, so a later NaN never wins and a
// NaN in the first tap is never replaced.
func refMaxPool2D(x []float64, planes, h, w, k int) (out []float64, argmax []int) {
	oh, ow := h/k, w/k
	for bc := 0; bc < planes; bc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := bc*h*w + oy*k*w + ox*k
				best := x[bestIdx]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if i := bc*h*w + (oy*k+ky)*w + ox*k + kx; x[i] > best {
							best, bestIdx = x[i], i
						}
					}
				}
				out, argmax = append(out, best), append(argmax, bestIdx)
			}
		}
	}
	return out, argmax
}

// TestMaxPool2DSelectSpecialValues holds MaxPool2D's forward and backward to
// the branchy reference, bit for bit, on windows with ties, a NaN first or
// later, -0 against +0 in both orders, infinities and subnormals, and on
// random planes salted with every special value.
func TestMaxPool2DSelectSpecialValues(t *testing.T) {
	nan, negZero := math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1)
	windows := [][4]float64{
		{1, 1, 1, 1}, {0.5, 2, 2, 1}, {nan, 3, 4, 5}, {3, nan, 4, 1}, {1, 2, 3, nan},
		{negZero, 0, negZero, 0}, {0, negZero, 0, negZero}, {math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)},
		{-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64},
	}
	// One 2×2 window per output position of a 2 × 2k plane.
	xd := make([]float64, 0, 4*len(windows))
	for row := 0; row < 2; row++ {
		for _, win := range windows {
			xd = append(xd, win[2*row], win[2*row+1])
		}
	}
	rng := rand.New(rand.NewSource(71))
	random := make([]float64, 3*6*6)
	for i := range random {
		random[i] = selectSpecials[rng.Intn(len(selectSpecials))]
		if rng.Intn(2) == 0 {
			random[i] = float64(rng.Intn(3)) // ties
		}
	}
	for _, tc := range []struct {
		x            []float64
		planes, h, w int
	}{{xd, 1, 2, 2 * len(windows)}, {random, 3, 6, 6}} {
		p := NewMaxPool2D(2)
		out := p.Forward(tensor.MustFromSlice(tc.x, 1, tc.planes, tc.h, tc.w), true).Data()
		wantOut, argmax := refMaxPool2D(tc.x, tc.planes, tc.h, tc.w, 2)
		g := make([]float64, len(out))
		wantGin := make([]float64, len(tc.x))
		for i := range g {
			g[i] = float64(i + 1)
			wantGin[argmax[i]] += g[i]
		}
		gin := p.Backward(tensor.MustFromSlice(g, 1, tc.planes, tc.h/2, tc.w/2)).Data()
		if i := kerneltest.FirstDiff(out, wantOut); i >= 0 {
			t.Errorf("window %d: max = %v, want %v", i, out[i], wantOut[i])
		}
		for i := range wantGin {
			if gin[i] != wantGin[i] {
				t.Errorf("gradIn[%d] = %v, want %v: the gradient went to another tap", i, gin[i], wantGin[i])
			}
		}
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
	if !slices.Equal(out.Shape(), x.Shape()) {
		t.Fatalf("identity residual changed shape: %v", out.Shape())
	}
	r2 := NewResidual(4, 8, 2, rng)
	out2 := r2.Forward(x, true)
	if out2.Dim(1) != 8 || out2.Dim(2) != 4 {
		t.Fatalf("projection residual shape: %v", out2.Shape())
	}
}
