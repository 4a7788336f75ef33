package attack

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GradientAttack is a white-box MIA in the spirit of Nasr et al. ("Comprehensive
// Privacy Analysis of Deep Learning"): the attacker, holding the model
// parameters (which every FL participant does), backpropagates each target
// sample and scores membership by the magnitude of the loss gradient —
// members of an overfit model produce systematically smaller gradients.
//
// The per-layer variant scores by the gradient norm of a single layer, which
// makes it the attack-side counterpart of the paper's layer-leakage analysis
// (§3): it quantifies how much an individual layer's gradient betrays
// membership, and shows that DINAR's obfuscated uploads deny the attacker
// exactly the layer that matters.
type GradientAttack struct {
	// Layer selects a single logical layer to score by; -1 (default) uses
	// the whole-model gradient norm.
	Layer int
	// BatchSize is the probe batch size (small batches sharpen per-sample
	// signal; default 1).
	BatchSize int
	// MaxSamples caps the number of samples scored per population (default
	// 256) to bound the cost of per-sample backpropagation.
	MaxSamples int
}

// NewGradientAttack returns a whole-model white-box gradient attack.
func NewGradientAttack() *GradientAttack {
	return &GradientAttack{Layer: -1, BatchSize: 1, MaxSamples: 256}
}

// NewLayerGradientAttack returns a white-box attack scoring by one layer's
// gradient norm.
func NewLayerGradientAttack(layer int) *GradientAttack {
	return &GradientAttack{Layer: layer, BatchSize: 1, MaxSamples: 256}
}

// AUC scores members and non-members by negative gradient norm and returns
// the attack AUC in [0.5, 1].
func (a *GradientAttack) AUC(m *nn.Model, members, nonMembers *data.Dataset) (float64, error) {
	if a.Layer >= m.NumLayers() {
		return 0, fmt.Errorf("attack: layer %d of %d-layer model", a.Layer, m.NumLayers())
	}
	ms, err := a.gradNorms(m, members)
	if err != nil {
		return 0, err
	}
	ns, err := a.gradNorms(m, nonMembers)
	if err != nil {
		return 0, err
	}
	negate(ms)
	negate(ns)
	return scoreAUC(ms, ns)
}

// gradNorms backpropagates probe batches and collects gradient norms.
func (a *GradientAttack) gradNorms(m *nn.Model, ds *data.Dataset) ([]float64, error) {
	bs := a.BatchSize
	if bs <= 0 {
		bs = 1
	}
	maxSamples := a.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 256
	}
	var loss nn.SoftmaxCrossEntropy
	out := make([]float64, 0, maxSamples)
	seen := 0
	err := ds.Batches(bs, nil, func(x *tensor.Tensor, y []int) error {
		if seen >= maxSamples {
			return nil
		}
		seen += len(y)
		logits := m.Forward(x, true)
		res, lerr := loss.Eval(logits, y)
		if lerr != nil {
			return lerr
		}
		m.ZeroGrads()
		m.BackwardParams(res.Grad)
		out = append(out, a.normOf(m))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("attack: no gradient probes collected")
	}
	return out, nil
}

func (a *GradientAttack) normOf(m *nn.Model) float64 {
	if a.Layer < 0 {
		s := 0.0
		for _, g := range m.GradVector() {
			s += g * g
		}
		return math.Sqrt(s)
	}
	g := m.LayerGradVectors()[a.Layer]
	s := 0.0
	for _, v := range g {
		s += v * v
	}
	return math.Sqrt(s)
}
