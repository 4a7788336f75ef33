package defense

import (
	"repro/internal/fl"
)

// DPFedSAM reproduces the mechanism of DP-FedSAM (Shi et al., CVPR 2023;
// Table 1): clients train with sharpness-aware minimization — which flattens
// the loss landscape and makes clipped, noised updates hurt utility less —
// and upload norm-clipped updates perturbed with Gaussian noise.
//
// The SAM part is an optimizer property: run the system with the "sam"
// optimizer (fl.Client performs the two-pass SAM update when the optimizer
// implements optim.TwoPhase). This defense contributes the DP part of the
// pipeline: clip + noise on the upload, identical in structure to LDP but
// with the milder noise DP-FedSAM's flat minima tolerate.
type DPFedSAM struct {
	Base

	// Clip is the update L2 bound; Sigma the Gaussian noise deviation.
	Clip, Sigma float64
	// Seed drives the noise deterministically per (round, client).
	Seed int64
}

var _ fl.Defense = (*DPFedSAM)(nil)

// NewDPFedSAM returns a DP-FedSAM defense with moderate noise.
func NewDPFedSAM(seed int64) *DPFedSAM {
	return &DPFedSAM{Clip: 1, Sigma: 0.05, Seed: seed}
}

// Name implements fl.Defense.
func (d *DPFedSAM) Name() string { return "dpfedsam" }

// StreamingAggregator implements fl.StreamingCapable: DP-FedSAM perturbs on
// the client and aggregates with plain FedAvg, so updates fold as they
// arrive.
func (d *DPFedSAM) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// BeforeUpload implements fl.Defense: clip-and-noise on the client update.
func (d *DPFedSAM) BeforeUpload(round int, global []float64, u *fl.Update) {
	n := d.Info().NumParams
	delta, err := deltaOf(u.State, global, n)
	if err != nil {
		panic(err)
	}
	clipNorm(delta, d.Clip)
	rng := seededRNG(d.Seed, round, u.ClientID)
	addGaussian(delta, d.Sigma, rng)
	for i := 0; i < n; i++ {
		u.State[i] = global[i] + delta[i]
	}
	d.addBytes(n)
}
