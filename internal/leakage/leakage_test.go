package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainCentral overfits a model on ds with plain SGD.
func trainCentral(t *testing.T, m *nn.Model, ds *data.Dataset, epochs int, lr float64) {
	t.Helper()
	var loss nn.SoftmaxCrossEntropy
	params, grads := m.Params(), m.Grads()
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < epochs; e++ {
		err := ds.Batches(32, rng, func(x *tensor.Tensor, y []int) error {
			out := m.Forward(x, true)
			res, err := loss.Eval(out, y)
			if err != nil {
				return err
			}
			m.Backward(res.Grad)
			for i, p := range params {
				pd, gd := p.Data(), grads[i].Data()
				for j := range pd {
					pd[j] -= lr * gd[j]
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func overfitSetup(t *testing.T) (*nn.Model, *data.Dataset, *data.Dataset) {
	t.Helper()
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = 400
	ds, err := data.Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	members, nonMembers := ds.Split(0.5)
	m := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	// Partial overfitting: with full overfitting every layer's member and
	// non-member gradient distributions become disjoint and the JS estimate
	// saturates at ln 2 for all layers, hiding the per-layer ordering.
	trainCentral(t, m, members, 6, 0.05)
	return m, members, nonMembers
}

func TestLayerDivergenceShape(t *testing.T) {
	m, members, nonMembers := overfitSetup(t)
	div, err := LayerDivergence(m, members, nonMembers)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) != m.NumLayers() {
		t.Fatalf("divergence for %d layers, want %d", len(div), m.NumLayers())
	}
	for l, d := range div {
		if math.IsNaN(d) || d < 0 || d > math.Log(2)+1e-9 {
			t.Fatalf("layer %d divergence %v outside [0, ln2]", l, d)
		}
	}
}

func TestTrainedModelLeaksMoreThanFresh(t *testing.T) {
	m, members, nonMembers := overfitSetup(t)
	trainedDiv, err := LayerDivergence(m, members, nonMembers)
	if err != nil {
		t.Fatal(err)
	}
	fresh := model.FCNN6(members.Spec.Features, members.Spec.Classes, rand.New(rand.NewSource(9)))
	freshDiv, err := LayerDivergence(fresh, members, nonMembers)
	if err != nil {
		t.Fatal(err)
	}
	trainedMax, freshMax := max(trainedDiv), max(freshDiv)
	if trainedMax <= freshMax {
		t.Fatalf("trained max divergence %v should exceed fresh %v", trainedMax, freshMax)
	}
}

func TestMostSensitiveLayerIsLate(t *testing.T) {
	// The paper (§3) finds the penultimate layer leaks most; at minimum the
	// most sensitive layer of an overfit classifier must sit in the deeper
	// half of the network.
	m, members, nonMembers := overfitSetup(t)
	div, err := LayerDivergence(m, members, nonMembers)
	if err != nil {
		t.Fatal(err)
	}
	p := MostSensitiveLayer(div)
	if p < m.NumLayers()/2 {
		t.Fatalf("most sensitive layer %d of %d is in the shallow half (div=%v)", p, m.NumLayers(), div)
	}
}

func TestMostSensitiveLayer(t *testing.T) {
	if got := MostSensitiveLayer([]float64{0.1, 0.5, 0.3}); got != 1 {
		t.Fatalf("argmax = %d", got)
	}
	if got := MostSensitiveLayer([]float64{0.2, 0.2}); got != 0 {
		t.Fatalf("tie argmax = %d", got)
	}
	if got := MostSensitiveLayer(nil); got != -1 {
		t.Fatalf("empty argmax = %d", got)
	}
}

func TestLayerDivergenceErrors(t *testing.T) {
	spec, _ := data.Lookup("purchase100")
	ds, _ := data.GenerateN(spec, 20, 1)
	m := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	empty := ds.Subset(nil)
	if _, err := LayerDivergence(m, empty, ds); err == nil {
		t.Fatal("accepted empty members")
	}
	if _, err := LayerDivergence(m, ds, empty); err == nil {
		t.Fatal("accepted empty non-members")
	}
}

func max(xs []float64) float64 {
	best := math.Inf(-1)
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}
