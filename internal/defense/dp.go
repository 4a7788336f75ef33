package defense

import (
	"fmt"

	"repro/internal/fl"
)

// LDP is local differential privacy (§5.2): each client clips its model
// update (state − global over the parameter prefix) to L2 norm Clip and adds
// Gaussian noise calibrated to (Epsilon, Delta) before upload. The paper uses
// ε = 2.2, δ = 1e-5 following Naseri et al.
type LDP struct {
	Base

	// Epsilon and Delta are the privacy budget; Clip is the L2 sensitivity
	// bound.
	Epsilon, Delta, Clip float64
	// Seed drives the noise deterministically per (round, client).
	Seed int64
}

var _ fl.Defense = (*LDP)(nil)

// NewLDP returns an LDP defense with the paper's ε=2.2, δ=1e-5 defaults.
func NewLDP(seed int64) *LDP {
	return &LDP{Epsilon: 2.2, Delta: 1e-5, Clip: 1, Seed: seed}
}

// NewLDPWithBudget returns an LDP defense with an explicit ε (for the §5.10
// budget sweep).
func NewLDPWithBudget(seed int64, epsilon float64) *LDP {
	d := NewLDP(seed)
	d.Epsilon = epsilon
	return d
}

// Name implements fl.Defense.
func (d *LDP) Name() string { return "ldp" }

// StreamingAggregator implements fl.StreamingCapable: LDP perturbs on the
// client and aggregates with plain FedAvg, so updates fold as they arrive.
func (d *LDP) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// BeforeUpload implements fl.Defense: clip-and-noise on the client update.
func (d *LDP) BeforeUpload(round int, global []float64, u *fl.Update) {
	n := d.Info().NumParams
	delta, err := deltaOf(u.State, global, n)
	if err != nil {
		panic(err) // fail closed: never upload the raw update
	}
	clipNorm(delta, d.Clip)
	sigma := gaussianSigma(d.Clip, d.Epsilon, d.Delta)
	rng := seededRNG(d.Seed, round, u.ClientID)
	addGaussian(delta, sigma, rng)
	for i := 0; i < n; i++ {
		u.State[i] = global[i] + delta[i]
	}
	d.addBytes(n) // noise buffer
}

// CDP is central differential privacy (§5.2): the server clips every client
// update, averages them, and perturbs the aggregate with Gaussian noise of
// scale σ/N before broadcasting. Client-side cost is zero; all extra work —
// and Table 3's +3,000% aggregation overhead — lands on the server.
type CDP struct {
	Base

	Epsilon, Delta, Clip float64
	Seed                 int64
}

var _ fl.Defense = (*CDP)(nil)

// NewCDP returns a CDP defense with the paper's ε=2.2, δ=1e-5 defaults.
func NewCDP(seed int64) *CDP {
	return &CDP{Epsilon: 2.2, Delta: 1e-5, Clip: 1, Seed: seed}
}

// Name implements fl.Defense.
func (d *CDP) Name() string { return "cdp" }

// Aggregate implements fl.Defense: per-update clipping, FedAvg, then
// Gaussian perturbation of the aggregate parameters.
func (d *CDP) Aggregate(round int, prevGlobal []float64, updates []*fl.Update) ([]float64, error) {
	n := d.Info().NumParams
	clipped := make([]*fl.Update, len(updates))
	for i, u := range updates {
		delta, err := deltaOf(u.State, prevGlobal, n)
		if err != nil {
			return nil, fmt.Errorf("cdp: %w", err)
		}
		clipNorm(delta, d.Clip)
		state := append([]float64(nil), u.State...)
		for j := 0; j < n; j++ {
			state[j] = prevGlobal[j] + delta[j]
		}
		clipped[i] = &fl.Update{
			ClientID:   u.ClientID,
			Round:      u.Round,
			State:      state,
			NumSamples: u.NumSamples,
		}
	}
	agg, err := fl.FedAvg(clipped)
	if err != nil {
		return nil, err
	}
	sigma := gaussianSigma(d.Clip, d.Epsilon, d.Delta) / float64(len(updates))
	rng := seededRNG(d.Seed, round, -1)
	addGaussian(agg[:n], sigma, rng)
	d.addBytes(n)
	return agg, nil
}

// WDP is weak differential privacy (Sun et al., §5.2): client-side norm
// bounding with a loose bound plus low-magnitude Gaussian noise
// (paper settings: bound 5, σ = 0.025) — better utility, weaker privacy.
type WDP struct {
	Base

	Bound, Sigma float64
	Seed         int64
}

var _ fl.Defense = (*WDP)(nil)

// NewWDP returns a WDP defense with the paper's bound=5, σ=0.025 settings.
func NewWDP(seed int64) *WDP {
	return &WDP{Bound: 5, Sigma: 0.025, Seed: seed}
}

// Name implements fl.Defense.
func (d *WDP) Name() string { return "wdp" }

// StreamingAggregator implements fl.StreamingCapable: WDP perturbs on the
// client and aggregates with plain FedAvg, so updates fold as they arrive.
func (d *WDP) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// BeforeUpload implements fl.Defense.
func (d *WDP) BeforeUpload(round int, global []float64, u *fl.Update) {
	n := d.Info().NumParams
	delta, err := deltaOf(u.State, global, n)
	if err != nil {
		panic(err)
	}
	clipNorm(delta, d.Bound)
	rng := seededRNG(d.Seed, round, u.ClientID)
	addGaussian(delta, d.Sigma, rng)
	for i := 0; i < n; i++ {
		u.State[i] = global[i] + delta[i]
	}
	d.addBytes(n)
}
