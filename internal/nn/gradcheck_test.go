package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// scalarize projects a layer output to a scalar via fixed random coefficients
// so we can gradient-check arbitrary output shapes: s = Σ w_i * out_i.
type scalarizer struct {
	w []float64
}

func newScalarizer(rng *rand.Rand, n int) *scalarizer {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return &scalarizer{w: w}
}

func (s *scalarizer) value(out *tensor.Tensor) float64 {
	v := 0.0
	for i, o := range out.Data() {
		v += s.w[i] * o
	}
	return v
}

func (s *scalarizer) grad(out *tensor.Tensor) *tensor.Tensor {
	g := tensor.New(out.Shape()...)
	copy(g.Data(), s.w)
	return g
}

// checkLayerGradients verifies the analytic input and parameter gradients of a
// layer against central finite differences. BatchNorm-style layers whose
// forward pass has train-time state updates are checked with train=true but
// need their running stats to not affect the output; all our layers satisfy
// this (running stats only matter in eval mode).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))

	out := layer.Forward(x, true)
	sc := newScalarizer(rng, out.Len())
	gradIn := layer.Backward(sc.grad(out))

	const eps = 1e-5

	// Input gradient check.
	xd := x.Data()
	for _, i := range sampleIndices(rng, len(xd), 20) {
		orig := xd[i]
		xd[i] = orig + eps
		plus := sc.value(layer.Forward(x, true))
		xd[i] = orig - eps
		minus := sc.value(layer.Forward(x, true))
		xd[i] = orig
		num := (plus - minus) / (2 * eps)
		got := gradIn.Data()[i]
		if !closeEnough(got, num, tol) {
			t.Fatalf("%s: input grad[%d] = %v, numeric %v", layer.Name(), i, got, num)
		}
	}

	// Parameter gradient check. Recompute analytic grads after the input
	// perturbation loop (it overwrote layer caches).
	out = layer.Forward(x, true)
	layer.Backward(sc.grad(out))
	params, grads := layer.Params(), layer.Grads()
	for pi, p := range params {
		pd := p.Data()
		analytic := grads[pi].Clone() // Backward overwrites; keep a copy
		for _, i := range sampleIndices(rng, len(pd), 12) {
			orig := pd[i]
			pd[i] = orig + eps
			plus := sc.value(layer.Forward(x, true))
			pd[i] = orig - eps
			minus := sc.value(layer.Forward(x, true))
			pd[i] = orig
			num := (plus - minus) / (2 * eps)
			got := analytic.Data()[i]
			if !closeEnough(got, num, tol) {
				t.Fatalf("%s: param %d grad[%d] = %v, numeric %v", layer.Name(), pi, i, got, num)
			}
		}
	}
}

func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	seen := make(map[int]bool, k)
	var idx []int
	for len(idx) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

func closeEnough(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff/scale <= tol
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(7, 5, rng)
	x := tensor.Randn(rng, 0, 1, 4, 7)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestDenseReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	layer := NewDenseAct(7, 5, ActReLU, rng)
	x := tensor.Randn(rng, 0, 1, 4, 7)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestDenseTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	layer := NewDenseAct(7, 5, ActTanh, rng)
	x := tensor.Randn(rng, 0, 1, 4, 7)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(2, 3, 3, 1, 1, rng)
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConv2D(3, 4, 3, 2, 1, rng)
	x := tensor.Randn(rng, 0, 1, 2, 3, 8, 8)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewConv1D(2, 3, 5, 2, 2, rng)
	x := tensor.Randn(rng, 0, 1, 2, 2, 12)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 0, 1, 3, 6)
	// Keep values away from the kink at zero for finite differences.
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.1
		}
		return v
	})
	checkLayerGradients(t, NewReLU(), x, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 0, 1, 3, 6)
	checkLayerGradients(t, NewTanh(), x, 1e-6)
}

func TestBatchNormDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewBatchNorm(5)
	x := tensor.Randn(rng, 1, 2, 6, 5)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestBatchNormConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewBatchNorm(3)
	x := tensor.Randn(rng, 0, 1, 2, 3, 4, 4)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestMaxPool2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Randn(rng, 0, 1, 2, 2, 6, 6)
	checkLayerGradients(t, NewMaxPool2D(2), x, 1e-5)
}

func TestMaxPool1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.Randn(rng, 0, 1, 2, 3, 8)
	checkLayerGradients(t, NewMaxPool1D(2), x, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.Randn(rng, 0, 1, 2, 3, 4, 4)
	checkLayerGradients(t, NewGlobalAvgPool(), x, 1e-6)
}

func TestGlobalAvgPool1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.Randn(rng, 0, 1, 2, 3, 9)
	checkLayerGradients(t, NewGlobalAvgPool(), x, 1e-6)
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	layer := NewResidual(3, 3, 1, rng)
	x := tensor.Randn(rng, 0, 1, 2, 3, 5, 5)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	layer := NewResidual(2, 4, 2, rng)
	x := tensor.Randn(rng, 0, 1, 2, 2, 6, 6)
	checkLayerGradients(t, layer, x, 1e-4)
}

// TestModelEndToEndGradient checks a complete small CNN + cross-entropy loss
// against finite differences on the flat parameter vector.
func TestModelEndToEndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewModel(
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*3*3, 4, rng),
	)
	x := tensor.Randn(rng, 0, 1, 3, 1, 6, 6)
	labels := []int{0, 2, 3}
	var loss SoftmaxCrossEntropy

	forwardLoss := func() float64 {
		out := m.Forward(x, true)
		res, err := loss.Eval(out, labels)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}

	out := m.Forward(x, true)
	res, err := loss.Eval(out, labels)
	if err != nil {
		t.Fatal(err)
	}
	m.Backward(res.Grad)
	analytic := m.GradVector()

	vec := m.ParamVector()
	const eps = 1e-5
	for _, i := range sampleIndices(rng, len(vec), 25) {
		orig := vec[i]
		vec[i] = orig + eps
		if err := m.SetParamVector(vec); err != nil {
			t.Fatal(err)
		}
		plus := forwardLoss()
		vec[i] = orig - eps
		if err := m.SetParamVector(vec); err != nil {
			t.Fatal(err)
		}
		minus := forwardLoss()
		vec[i] = orig
		if err := m.SetParamVector(vec); err != nil {
			t.Fatal(err)
		}
		num := (plus - minus) / (2 * eps)
		if !closeEnough(analytic[i], num, 1e-4) {
			t.Fatalf("model grad[%d] = %v, numeric %v", i, analytic[i], num)
		}
	}
}
