// Package defense implements the five state-of-the-art FL privacy baselines
// the paper compares DINAR against (§5.2): local and central differential
// privacy (LDP, CDP), weak differential privacy (WDP), gradient compression
// (GC), and secure aggregation (SA) — plus the no-defense baseline.
//
// All defenses implement fl.Defense. Perturbation mechanisms operate on the
// trainable-parameter prefix of the state vector (normalization running
// statistics are aggregated but not perturbed, matching how DP-FL frameworks
// exclude buffers from the privacy mechanism).
package defense

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fl"
	"repro/internal/metrics"
)

// Base provides identity hooks and FedAvg aggregation; concrete defenses
// embed it and override what they need.
type Base struct {
	info  fl.ModelInfo
	meter *metrics.CostMeter
}

// Bind implements fl.Defense.
func (b *Base) Bind(info fl.ModelInfo) error {
	b.info = info
	return nil
}

// Info returns the bound model layout.
func (b *Base) Info() fl.ModelInfo { return b.info }

// SetMeter attaches a cost meter for defense-attributed memory accounting.
func (b *Base) SetMeter(m *metrics.CostMeter) { b.meter = m }

func (b *Base) addBytes(n int) {
	if b.meter != nil {
		b.meter.AddDefenseBytes(uint64(n) * 8)
	}
}

// OnGlobalModel implements fl.Defense (identity: global itself, which the
// caller only installs).
func (b *Base) OnGlobalModel(_, _ int, global []float64) []float64 { return global }

// BeforeUpload implements fl.Defense (identity).
func (b *Base) BeforeUpload(_ int, _ []float64, _ *fl.Update) {}

// Aggregate implements fl.Defense (FedAvg).
func (b *Base) Aggregate(_ int, _ []float64, updates []*fl.Update) ([]float64, error) {
	return fl.FedAvg(updates)
}

// None is the undefended FL baseline.
type None struct{ Base }

var _ fl.Defense = (*None)(nil)

// NewNone returns the no-defense baseline.
func NewNone() *None { return &None{} }

// Name implements fl.Defense.
func (*None) Name() string { return "none" }

// StreamingAggregator implements fl.StreamingCapable: the baseline
// aggregates with FedAvg, which folds one update at a time.
//
// The capability is declared per concrete defense rather than on Base:
// several defenses embed Base but override Aggregate (CDP post-noises the
// aggregate, SA needs the full masked cohort), and a method on Base would
// wrongly advertise streaming for them too.
func (*None) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// gaussianSigma returns the Gaussian-mechanism noise multiplier
// σ = clip·sqrt(2·ln(1.25/δ))/ε.
func gaussianSigma(clip, epsilon, delta float64) float64 {
	return clip * math.Sqrt(2*math.Log(1.25/delta)) / epsilon
}

// clipNorm scales vec in place so its L2 norm is at most bound, returning the
// pre-clip norm.
func clipNorm(vec []float64, bound float64) float64 {
	s := 0.0
	for _, v := range vec {
		s += v * v
	}
	norm := math.Sqrt(s)
	if norm > bound && norm > 0 {
		scale := bound / norm
		for i := range vec {
			vec[i] *= scale
		}
	}
	return norm
}

// addGaussian adds N(0, sigma²) noise to vec using rng.
func addGaussian(vec []float64, sigma float64, rng *rand.Rand) {
	for i := range vec {
		vec[i] += rng.NormFloat64() * sigma
	}
}

// deltaOf returns state − global over the first n entries.
func deltaOf(state, global []float64, n int) ([]float64, error) {
	if len(state) < n || len(global) < n {
		return nil, fmt.Errorf("defense: state %d / global %d shorter than params %d", len(state), len(global), n)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = state[i] - global[i]
	}
	return d, nil
}

// seededRNG derives a deterministic RNG for (seed, round, client).
func seededRNG(seed int64, round, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(round+1)<<24 ^ int64(client+1)<<8))
}
