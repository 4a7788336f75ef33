package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestBuildAllRegisteredDatasets(t *testing.T) {
	for _, name := range data.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := data.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			m, err := Build(spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			// Forward a small batch of real generated data through the model.
			ds, err := data.GenerateN(spec, spec.Classes, 1)
			if err != nil {
				t.Fatal(err)
			}
			x, y := ds.Batch(0, 4)
			out := m.Forward(x, true)
			if out.Dim(0) != 4 || out.Dim(1) != spec.Classes {
				t.Fatalf("output shape %v, want [4 %d]", out.Shape(), spec.Classes)
			}
			var loss nn.SoftmaxCrossEntropy
			res, err := loss.Eval(out, y)
			if err != nil {
				t.Fatal(err)
			}
			m.Backward(res.Grad)
			if m.NumParams() == 0 {
				t.Fatal("model has no parameters")
			}
		})
	}
}

func TestResNet20LayerCount(t *testing.T) {
	m := ResNet20(3, 10, rand.New(rand.NewSource(1)))
	// 20 weight layers: initial conv + 9 blocks × 2 convs + classifier,
	// plus 2 projection convs (stage transitions) = 22 spans.
	if got := m.NumLayers(); got != 22 {
		t.Fatalf("ResNet20 spans = %d, want 22", got)
	}
}

func TestVGG11LayerCount(t *testing.T) {
	m, err := VGG11(3, 16, 16, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// 8 convolutions + 2 dense layers.
	if got := m.NumLayers(); got != 10 {
		t.Fatalf("VGG11 spans = %d, want 10", got)
	}
}

func TestVGG11RejectsTinyInputs(t *testing.T) {
	if _, err := VGG11(3, 8, 8, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("VGG11 accepted 8x8 input")
	}
}

func TestM18LayerCount(t *testing.T) {
	m, err := M18(256, 36, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// 17 convolutions + 1 dense = 18 weight layers, as the name promises.
	if got := m.NumLayers(); got != 18 {
		t.Fatalf("M18 spans = %d, want 18", got)
	}
}

func TestM18RejectsShortSequences(t *testing.T) {
	if _, err := M18(32, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("M18 accepted seqLen=32")
	}
}

func TestFCNN6LayerCount(t *testing.T) {
	m := FCNN6(600, 100, rand.New(rand.NewSource(1)))
	// The paper's Fig. 5 sweeps layer sets {5}, {4,5}, ..., {1..6} of a
	// 6-layer network.
	if got := m.NumLayers(); got != 6 {
		t.Fatalf("FCNN6 spans = %d, want 6", got)
	}
}

func TestBuildFallbackByModality(t *testing.T) {
	spec := data.Spec{
		Name: "custom-tabular", Records: 10, Classes: 5,
		Modality: data.Tabular, Features: 32, Noise: 0.1,
	}
	m, err := Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 6 {
		t.Fatalf("fallback tabular spans = %d", m.NumLayers())
	}
	spec = data.Spec{
		Name: "custom-audio", Records: 10, Classes: 5,
		Modality: data.Audio, SeqLen: 128, Noise: 0.1,
	}
	if _, err := Build(spec, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(data.Spec{Name: "x"}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Build accepted spec with no modality")
	}
}

// TestFCNN6Learns drives a few hundred SGD steps on an easy synthetic task
// and requires the loss to fall, validating the whole stack end to end.
func TestFCNN6Learns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spec := data.Spec{
		Name: "t", Records: 64, Classes: 4,
		Modality: data.Tabular, Features: 24, Noise: 0.02,
	}
	ds, err := data.GenerateN(spec, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := FCNN6(24, 4, rng)
	var loss nn.SoftmaxCrossEntropy
	x, y := ds.Batch(0, 64)

	evalLoss := func() float64 {
		out := m.Forward(x, true)
		res, err := loss.Eval(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}

	initial := evalLoss()
	lr := 0.05
	for i := 0; i < 150; i++ {
		out := m.Forward(x, true)
		res, err := loss.Eval(out, y)
		if err != nil {
			t.Fatal(err)
		}
		m.Backward(res.Grad)
		params, grads := m.Params(), m.Grads()
		for j, p := range params {
			pd, gd := p.Data(), grads[j].Data()
			for k := range pd {
				pd[k] -= lr * gd[k]
			}
		}
	}
	final := evalLoss()
	if final >= initial*0.7 {
		t.Fatalf("loss %v -> %v; FCNN6 failed to learn", initial, final)
	}
}

func TestResNet20ForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := ResNet20(3, 10, rng)
	x := tensor.Randn(rng, 0, 1, 2, 3, 16, 16)
	out := m.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("ResNet20 output %v", out.Shape())
	}
	// Eval mode must also work (exercises BN running stats).
	out = m.Forward(x, false)
	if out.Dim(1) != 10 {
		t.Fatalf("ResNet20 eval output %v", out.Shape())
	}
}

func TestModelsAreDeterministicPerSeed(t *testing.T) {
	a := FCNN6(32, 5, rand.New(rand.NewSource(9)))
	b := FCNN6(32, 5, rand.New(rand.NewSource(9)))
	av, bv := a.ParamVector(), b.ParamVector()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("same seed should build identical models")
		}
	}
}

// TestBackwardParamsMatchesBackward checks Model.BackwardParams on the four
// paper models: every gradient tensor is bit-equal to Model.Backward's, and
// a repeated call runs in the layers' workspaces, allocating no more than
// Backward does.
// FCNN6, VGG11 and ResNet20 start with a layer that skips its input
// gradient; M18 starts with a Conv1D, which cannot (it fuses the weight and
// input gradients in one loop), so there BackwardParams must fall back to
// the layer's Backward and still fill its gradients.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	prev := parallel.SetWorkers(1) // the pool's fan-out allocates closures
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, name := range []string{"purchase100", "celeba", "cifar10", "speechcommands"} {
		spec, err := data.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, conv1d := m.Layers()[0].(*nn.Conv1D); conv1d != (name == "speechcommands") {
			t.Fatalf("%s: first layer %s", name, m.Layers()[0].Name())
		}
		ds, err := data.GenerateN(spec, spec.Classes, 1)
		if err != nil {
			t.Fatal(err)
		}
		x, y := ds.Batch(0, 8)
		var loss nn.SoftmaxCrossEntropy
		res, err := loss.Eval(m.Forward(x, true), y)
		if err != nil {
			t.Fatal(err)
		}
		m.Backward(res.Grad)
		var want []*tensor.Tensor
		for _, g := range m.Grads() {
			want = append(want, g.Clone())
		}
		m.ZeroGrads()
		m.BackwardParams(res.Grad)
		for i, g := range m.Grads() {
			for j, v := range g.Data() {
				if w := want[i].Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: grad tensor %d[%d] = %v through BackwardParams, %v through Backward", name, i, j, v, w)
				}
			}
		}
		// Flatten's reshaped view is all a warmed-up backward pass allocates.
		full := testing.AllocsPerRun(5, func() { m.Backward(res.Grad) })
		if allocs := testing.AllocsPerRun(5, func() { m.BackwardParams(res.Grad) }); allocs > full {
			t.Errorf("%s: a repeated BackwardParams allocates %v times, Backward %v", name, allocs, full)
		}
	}
}
