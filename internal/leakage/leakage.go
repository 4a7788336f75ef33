// Package leakage implements the paper's layer-level privacy analysis
// (§3, Fig. 1, Fig. 4a and the client-side measurement of §4.1): for every
// logical model layer it measures the "generalization gap" — the
// Jensen–Shannon divergence between per-layer gradient distributions
// produced by member data and by non-member data. The layer with the highest
// divergence leaks the most membership information and is the one DINAR
// obfuscates.
//
// The gradient statistic is per-batch RMS-normalized gradient entries,
// pooled per layer. Normalizing per batch cancels the global loss-magnitude
// gap (overfit members have uniformly tiny gradients; a raw per-layer norm
// saturates at ln 2 for every layer of a strongly overfit model) and
// isolates the label- and sample-specific structure of each layer's
// gradient, which concentrates in the deepest layers — the phenomenon
// behind the paper's Fig. 1.
package leakage

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const (
	// batchSize is the gradient-probe batch size. Small batches sharpen the
	// per-sample structure of the gradient signal; with larger probe
	// batches the measured peak drifts from the penultimate layer toward
	// the classifier.
	batchSize = 2
	// maxBatches caps the number of probe batches per population.
	maxBatches = 64
	// bins is the histogram resolution of the JS estimate.
	bins = 32
	// entriesPerBatch caps how many normalized gradient entries are sampled
	// per layer per batch.
	entriesPerBatch = 200
)

// LayerDivergence returns, for each logical layer of m, the Jensen–Shannon
// divergence between member and non-member gradient distributions. Higher =
// more membership leakage.
func LayerDivergence(m *nn.Model, members, nonMembers *data.Dataset) ([]float64, error) {
	if members.Len() == 0 || nonMembers.Len() == 0 {
		return nil, fmt.Errorf("leakage: empty member/non-member sets")
	}
	memberSamples, err := collect(m, members)
	if err != nil {
		return nil, err
	}
	nonSamples, err := collect(m, nonMembers)
	if err != nil {
		return nil, err
	}
	layers := m.NumLayers()
	out := make([]float64, layers)
	for l := 0; l < layers; l++ {
		js, err := metrics.JSDivergenceSamples(memberSamples[l], nonSamples[l], bins)
		if err != nil {
			return nil, fmt.Errorf("leakage: layer %d: %w", l, err)
		}
		out[l] = js
	}
	return out, nil
}

// collect gathers the per-layer gradient statistic over probe batches of ds.
func collect(m *nn.Model, ds *data.Dataset) ([][]float64, error) {
	var loss nn.SoftmaxCrossEntropy
	layers := m.NumLayers()
	samples := make([][]float64, layers)
	batches := 0
	err := ds.Batches(batchSize, nil, func(x *tensor.Tensor, y []int) error {
		if batches >= maxBatches {
			return nil
		}
		batches++
		out := m.Forward(x, true)
		res, lerr := loss.Eval(out, y)
		if lerr != nil {
			return lerr
		}
		m.ZeroGrads()
		m.BackwardParams(res.Grad)
		for l, g := range m.LayerGradVectors() {
			rms := rmsOf(g)
			if rms == 0 {
				rms = 1e-12
			}
			step := len(g)/entriesPerBatch + 1
			for i := 0; i < len(g); i += step {
				samples[l] = append(samples[l], g[i]/rms)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

func rmsOf(g []float64) float64 {
	if len(g) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range g {
		s += v * v
	}
	return math.Sqrt(s / float64(len(g)))
}

// MostSensitiveLayer returns the index of the maximum divergence (ties go to
// the earliest index) — each client's vote pᵢ in the §4.1 consensus.
func MostSensitiveLayer(divergences []float64) int {
	best, bestIdx := math.Inf(-1), -1
	for i, d := range divergences {
		if d > best {
			best, bestIdx = d, i
		}
	}
	return bestIdx
}
