package defense

import "repro/internal/fl"

// GC is the gradient-compression defense (§5.2, Fu et al.): each client
// sparsifies its update, keeping only the Ratio fraction of parameters with
// the largest absolute change and zeroing the rest, which reduces the
// information available to a membership attacker.
type GC struct {
	Base

	// Ratio is the kept fraction in (0, 1]; the default 0.1 keeps the top
	// 10% of update coordinates.
	Ratio float64
}

var _ fl.Defense = (*GC)(nil)

// NewGC returns a gradient-compression defense keeping the top 10% of each
// update.
func NewGC() *GC { return &GC{Ratio: 0.1} }

// Name implements fl.Defense.
func (d *GC) Name() string { return "gc" }

// StreamingAggregator implements fl.StreamingCapable: GC sparsifies on the
// client and aggregates with plain FedAvg, so updates fold as they arrive.
func (d *GC) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// BeforeUpload implements fl.Defense: top-k sparsification of the update.
func (d *GC) BeforeUpload(_ int, global []float64, u *fl.Update) {
	n := d.Info().NumParams
	delta, err := deltaOf(u.State, global, n)
	if err != nil {
		return
	}
	keep := int(float64(n) * d.Ratio)
	if keep < 1 {
		keep = 1
	}
	if keep < n {
		// Keep everything strictly above the k-th largest magnitude, then
		// admit values equal to it, lowest index first, until exactly
		// `keep` survive (exact top-k even with ties, e.g. many zero
		// coordinates).
		threshold, above := fl.KthLargestAbsDiff(u.State[:n], global[:n], keep)
		atThreshold := keep - above
		for i, v := range delta {
			switch {
			case abs(v) > threshold:
				// keep
			case abs(v) == threshold && atThreshold > 0:
				atThreshold--
			default:
				delta[i] = 0
			}
		}
	}
	for i := 0; i < n; i++ {
		u.State[i] = global[i] + delta[i]
	}
	// GC stores the residual between original and compressed gradients
	// (Table 3 attributes its +252% memory to exactly that buffer).
	d.addBytes(2 * n)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
