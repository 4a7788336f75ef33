// Package core implements DINAR, the paper's primary contribution
// (Algorithm 1): fine-grained privacy protection of federated-learning
// models against membership inference attacks.
//
// DINAR runs on the client side. Each round:
//
//   - Model personalization (lines 1–6): the client takes the received
//     global model but replaces the parameters of the privacy-sensitive
//     layer p with its own stored, non-obfuscated copy θᵖ*.
//   - Adaptive model training (lines 7–14): local training with Adagrad
//     (implemented in internal/optim; selected via the system config).
//   - Model obfuscation (lines 15–17): before upload, the client stores the
//     trained layer-p parameters as θᵖ* and replaces them in the upload with
//     random values.
//
// The privacy-sensitive layer index is chosen by the Byzantine-tolerant
// distributed vote of §4.1 (internal/consensus over the per-layer
// generalization gaps of internal/leakage); it "typically converges to the
// penultimate layer", which is this package's default.
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/fl"
	"repro/internal/nn"
)

// ObfuscationMode selects the distribution of the random replacement values.
type ObfuscationMode int

// Obfuscation modes.
const (
	// ObfuscateGaussian draws replacements from N(0, InitScale²) of the
	// obfuscated layer, so obfuscated parameters are statistically
	// indistinguishable from a freshly initialized layer (default).
	ObfuscateGaussian ObfuscationMode = iota + 1
	// ObfuscateUniform draws replacements uniformly from
	// [-2·InitScale, 2·InitScale] (ablation alternative).
	ObfuscateUniform
)

// DINAR is the fl.Defense implementing the paper's Algorithm 1. It is safe
// for concurrent use by parallel clients.
type DINAR struct {
	// Layers lists the logical layer indices to obfuscate. Empty means
	// "penultimate layer", the consensus outcome reported by the paper.
	// Negative indices count from the end (-2 = penultimate).
	Layers []int
	// Mode selects the replacement distribution (default ObfuscateGaussian).
	Mode ObfuscationMode
	// Seed drives the obfuscation randomness deterministically per
	// (round, client).
	Seed int64

	mu     sync.Mutex
	info   fl.ModelInfo
	layers []int                // resolved, sorted span indices
	store  map[int]*clientStore // nil until Bind
}

// clientStore is what DINAR keeps for one client between rounds.
type clientStore struct {
	// private holds θᵖ* per protected layer index.
	private map[int][]float64
	// personalized is the state OnGlobalModel returns, rebuilt in place every
	// round; only its owner's hooks touch it.
	personalized []float64
}

var _ fl.Defense = (*DINAR)(nil)

// New returns a DINAR defense that obfuscates the penultimate layer.
func New(seed int64) *DINAR {
	return &DINAR{Mode: ObfuscateGaussian, Seed: seed}
}

// NewWithLayers returns a DINAR defense obfuscating the given logical layer
// indices (negative = from the end).
func NewWithLayers(seed int64, layers ...int) *DINAR {
	return &DINAR{Mode: ObfuscateGaussian, Seed: seed, Layers: layers}
}

// Name implements fl.Defense.
func (d *DINAR) Name() string { return "dinar" }

// Bind implements fl.Defense: it resolves layer indices against the model
// layout.
func (d *DINAR) Bind(info fl.ModelInfo) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(info.Spans)
	if n == 0 {
		return fmt.Errorf("core: model has no layers")
	}
	want := d.Layers
	if len(want) == 0 {
		// Default: the penultimate layer (§4.1's typical consensus outcome).
		// If that layer sits on a residual main path, a skip connection
		// carries the real signal around the obfuscation and the upload
		// stays attackable — in such architectures the leakage measurement
		// votes for the classifier instead, so fall back to the last layer.
		p := n - 2
		if p < 0 {
			p = 0
		}
		if info.Spans[p].Bypassable {
			p = n - 1
		}
		want = []int{p}
	}
	resolved := make([]int, 0, len(want))
	seen := make(map[int]bool, len(want))
	for _, l := range want {
		idx := l
		if idx < 0 {
			idx = n + idx
		}
		if idx < 0 || idx >= n {
			return fmt.Errorf("core: layer %d out of range for %d-layer model", l, n)
		}
		if !seen[idx] {
			seen[idx] = true
			resolved = append(resolved, idx)
		}
	}
	d.info = info
	d.layers = resolved
	d.store = make(map[int]*clientStore)
	return nil
}

// PrivateLayers returns the resolved obfuscated layer indices (valid after
// Bind).
func (d *DINAR) PrivateLayers() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.layers...)
}

// OnGlobalModel implements fl.Defense: model personalization (Algorithm 1,
// lines 1–6). For each protected layer the client's stored private
// parameters replace the (obfuscated) global values. On the first round no
// private copy exists yet and the global state itself is returned; afterwards
// the result is the client's personalized buffer, overwritten by its next
// OnGlobalModel.
func (d *DINAR) OnGlobalModel(clientID, round int, state []float64) []float64 {
	d.mu.Lock()
	cs := d.store[clientID]
	d.mu.Unlock()
	if cs == nil {
		return state
	}
	// Only this client's hooks touch its buffer, so the state-sized copy runs
	// outside the lock parallel clients share.
	cs.personalized = append(cs.personalized[:0], state...)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, li := range d.layers {
		sp := d.info.Spans[li]
		if priv, ok := cs.private[li]; ok {
			copy(cs.personalized[sp.Offset:sp.Offset+sp.Len], priv)
		}
	}
	return cs.personalized
}

// BeforeUpload implements fl.Defense: model obfuscation (Algorithm 1, lines
// 15–17). The trained layer-p parameters are stored privately (θᵖ* ← θᵖ) and
// replaced in the upload by random values.
func (d *DINAR) BeforeUpload(round int, _ []float64, u *fl.Update) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store == nil {
		return
	}
	cs := d.store[u.ClientID]
	if cs == nil {
		cs = &clientStore{private: make(map[int][]float64, len(d.layers))}
		d.store[u.ClientID] = cs
	}
	rng := rand.New(rand.NewSource(d.Seed ^ int64(round)<<20 ^ int64(u.ClientID)<<4 ^ 0x1d))
	for _, li := range d.layers {
		sp := d.info.Spans[li]
		segment := u.State[sp.Offset : sp.Offset+sp.Len]
		cs.private[li] = append(cs.private[li][:0], segment...)
		fillRandom(segment, sp, d.Mode, rng)
	}
}

// Aggregate implements fl.Defense with plain FedAvg; DINAR adds no
// server-side work (Table 3: +0% aggregation overhead).
func (d *DINAR) Aggregate(_ int, _ []float64, updates []*fl.Update) ([]float64, error) {
	return fl.FedAvg(updates)
}

// StreamingAggregator implements fl.StreamingCapable: DINAR's server side is
// plain FedAvg, so updates fold into an O(model) accumulator as they arrive.
// Sampled-out clients keep obfuscating with a stale private layer until the
// next broadcast they see re-personalizes it (OnGlobalModel).
func (d *DINAR) StreamingAggregator() fl.StreamingAggregator { return fl.NewStreamingFedAvg() }

// StoredPrivate returns a copy of the stored private parameters of the given
// client and logical layer, or nil if none exist. Intended for tests and the
// middleware's crash-recovery path.
func (d *DINAR) StoredPrivate(clientID, layer int) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := d.store[clientID]
	if cs == nil || cs.private[layer] == nil {
		return nil
	}
	return append([]float64(nil), cs.private[layer]...)
}

// ExportStore returns a deep copy of a client's full private-layer store
// (layer index → parameters), for checkpointing. Nil when the client has no
// stored layers yet.
func (d *DINAR) ExportStore(clientID int) map[int][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := d.store[clientID]
	if cs == nil || len(cs.private) == 0 {
		return nil
	}
	out := make(map[int][]float64, len(cs.private))
	for li, vals := range cs.private {
		out[li] = append([]float64(nil), vals...)
	}
	return out
}

// ImportStore replaces a client's private-layer store with the given layers
// (crash recovery from a checkpoint). Layer lengths are validated against
// the bound model layout.
func (d *DINAR) ImportStore(clientID int, layers map[int][]float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store == nil {
		return fmt.Errorf("core: ImportStore before Bind")
	}
	saved := make(map[int][]float64, len(layers))
	for li, vals := range layers {
		if li < 0 || li >= len(d.info.Spans) {
			return fmt.Errorf("core: imported layer %d out of range", li)
		}
		if len(vals) != d.info.Spans[li].Len {
			return fmt.Errorf("core: imported layer %d has %d values, want %d", li, len(vals), d.info.Spans[li].Len)
		}
		saved[li] = append([]float64(nil), vals...)
	}
	d.store[clientID] = &clientStore{private: saved}
	return nil
}

// fillRandom overwrites segment with random values matching the layer's
// initialization distribution.
func fillRandom(segment []float64, sp nn.Span, mode ObfuscationMode, rng *rand.Rand) {
	switch mode {
	case ObfuscateUniform:
		bound := 2 * sp.InitScale
		for i := range segment {
			segment[i] = -bound + 2*bound*rng.Float64()
		}
	default: // ObfuscateGaussian
		for i := range segment {
			segment[i] = rng.NormFloat64() * sp.InitScale
		}
	}
}

// Obfuscate replaces the given logical layer's values in state with random
// draws, standalone (used by the per-layer protection sweep of Fig. 4b/5
// without running the full defense pipeline).
func Obfuscate(state []float64, sp nn.Span, mode ObfuscationMode, rng *rand.Rand) error {
	if sp.Offset < 0 || sp.Offset+sp.Len > len(state) {
		return fmt.Errorf("core: span [%d,%d) out of state length %d", sp.Offset, sp.Offset+sp.Len, len(state))
	}
	fillRandom(state[sp.Offset:sp.Offset+sp.Len], sp, mode, rng)
	return nil
}
