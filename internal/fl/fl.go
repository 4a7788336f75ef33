// Package fl implements the federated-learning core of the DINAR middleware:
// clients that train local models, a server that aggregates them with FedAvg,
// and a defense-interceptor interface through which every privacy mechanism
// of the paper (LDP, CDP, WDP, GC, SA, DINAR) plugs into the round pipeline.
//
// A round proceeds exactly as in §2.1/§4 of the paper:
//
//  1. the server broadcasts the global model state;
//  2. each client passes it through Defense.OnGlobalModel (DINAR restores its
//     private layer here — "model personalization"), installs it, and trains
//     locally ("adaptive model training");
//  3. each client passes its new state through Defense.BeforeUpload (DINAR
//     obfuscates the private layer; LDP/WDP perturb; GC compresses; SA masks)
//     and uploads it;
//  4. the server combines uploads via Defense.Aggregate (FedAvg by default;
//     CDP perturbs the aggregate; SA uses the masked sum).
package fl

import (
	"fmt"
	"strings"

	"repro/internal/nn"
)

// Update is a client-to-server model update for one round.
type Update struct {
	// ClientID identifies the sending client.
	ClientID int
	// Round is the FL round this update belongs to.
	Round int
	// State is the client's full model state vector (parameters followed by
	// normalization statistics), already passed through the client-side
	// defense. One returned by Client.RunRound or System.RunRound is the
	// client's buffer, valid until that client's next RunRound.
	State []float64
	// NumSamples is the client's local training set size; FedAvg weighs
	// updates by it.
	NumSamples int
	// Staleness is how many rounds old the update is at aggregation time
	// (0 in synchronous rounds). The async buffered mode sets it for late
	// updates, and FedAvg decays their weight by StalenessWeight.
	Staleness int
}

// ModelInfo describes the model layout to defenses that address individual
// layers (DINAR) or need vector sizes (noise mechanisms).
type ModelInfo struct {
	// Spans lists the logical layer spans over the parameter prefix of the
	// state vector.
	Spans []nn.Span
	// NumParams is the length of the parameter prefix.
	NumParams int
	// NumState is the full state vector length.
	NumState int
}

// InfoOf extracts ModelInfo from a model.
func InfoOf(m *nn.Model) ModelInfo {
	return ModelInfo{
		Spans:     m.Spans(),
		NumParams: m.NumParams(),
		NumState:  m.NumState(),
	}
}

// Defense is the middleware interceptor interface. Implementations must be
// safe for concurrent use by multiple clients: OnGlobalModel and BeforeUpload
// are invoked from per-client goroutines when parallel training is enabled.
//
// All hooks receive and return full state vectors. global and prevGlobal are
// published states, shared by everyone who reads them: implementations must
// neither write into them nor retain them after returning (copy if needed).
type Defense interface {
	// Name returns the defense identifier used in reports, e.g. "dinar".
	Name() string
	// Bind is called once with the model layout before the first round.
	Bind(info ModelInfo) error
	// OnGlobalModel transforms the broadcast global state on the client side
	// before the client installs it. round is 0-based. The result is
	// read-only: it may be global itself or the defense's own scratch, and it
	// is dead after the defense's next call for that client — callers
	// install it and let go.
	OnGlobalModel(clientID, round int, global []float64) []float64
	// BeforeUpload transforms the client's trained state before upload. The
	// update's State field is the post-training state; implementations mutate
	// or replace it. global is the state the round started from, so
	// delta-based mechanisms (DP noise on updates, gradient compression) can
	// operate on state − global. A mechanism that cannot apply (a state
	// shorter than the model) panics rather than upload the update raw.
	BeforeUpload(round int, global []float64, u *Update)
	// Aggregate combines the round's updates into the next global state on
	// the server side; prevGlobal is the state the round started from. Most
	// defenses delegate to FedAvg. The result must be memory of its own,
	// overlapping neither prevGlobal nor any update's State: the server
	// publishes it uncopied while the updates' buffers are recycled.
	Aggregate(round int, prevGlobal []float64, updates []*Update) ([]float64, error)
}

// adaptiveOptimizers are the optimizers whose effective first-step magnitude
// is roughly the raw learning rate per coordinate, so they take a rate of
// their own, far below SGD's.
var adaptiveOptimizers = map[string]bool{
	"adagrad": true, "adam": true, "adamax": true, "rmsprop": true, "adgd": true,
}

// OptimizerFor names the optimizer the clients of a federation under the
// named defense train with, unless its configuration says otherwise. The
// optimizer is part of two of the methods: DINAR trains with its adaptive
// gradient descent (Algorithm 1; the prefix match takes robust-wrapped
// variants, "dinar+robust", too) and DP-FedSAM with sharpness-aware
// minimization. Every baseline trains with SGD.
func OptimizerFor(defenseName string) string {
	switch {
	case strings.HasPrefix(defenseName, "dinar"):
		return "adagrad"
	case strings.HasPrefix(defenseName, "dpfedsam"):
		return "sam"
	default:
		return "sgd"
	}
}

// sgdRates are tuned per-dataset SGD learning rates for the scaled models
// (probed so each model family reaches its paper-comparable utility band).
var sgdRates = map[string]float64{
	"cifar10":        0.2,
	"cifar100":       0.2,
	"gtsrb":          0.2,
	"celeba":         0.2,
	"speechcommands": 0.3,
	"purchase100":    0.8,
	"texas100":       0.8,
}

// DefaultLearningRate returns the tuned learning rate for a (dataset,
// optimizer) pair: adaptive optimizers use 0.01 everywhere; SGD uses a
// per-dataset rate (0.2 for unknown datasets).
func DefaultLearningRate(dataset, optimizer string) float64 {
	if adaptiveOptimizers[optimizer] {
		return 0.01
	}
	if r, ok := sgdRates[dataset]; ok {
		return r
	}
	return 0.2
}

// fedAvgTile is how many coordinates FedAvg folds at a time: the tile's
// accumulator (17 bytes a coordinate, 34 KiB) stays in the L1/L2 caches
// while every update's slice of it streams past once.
const fedAvgTile = 2048

// FedAvg computes the sample-count-weighted average of the updates' state
// vectors — the classical aggregation rule of McMahan et al. A zero total
// weight falls back to the unweighted mean; stale updates (Update.Staleness
// > 0, set by the async mode) are decayed by StalenessWeight.
//
// FedAvg is defined as StreamingFedAvg folded over the batch: the sums
// accumulate in exact fixed point (see exact.go), so the result is
// identical no matter how the batch is ordered or split — the streaming
// arrival-order path, the materialized sorted path, and an async
// crash/resume all agree bit for bit. With the whole batch in hand it checks
// every update first, in order and with Fold's errors, which also fixes the
// total weight; each update's scale is then known (its weight, or its decay
// when every weight is zero — StreamingFedAvg's rule, which ends at the
// same sums), so the cohort folds one tile of coordinates at a time and
// each tile finalizes straight into the result.
func FedAvg(updates []*Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: FedAvg of zero updates")
	}
	var wTotal, cTotal fixAcc
	dim := -1
	for _, u := range updates {
		if err := admit(u, dim); err != nil {
			return nil, err
		}
		dim = len(u.State)
		if _, _, err := weigh(u, &wTotal, &cTotal); err != nil {
			return nil, err
		}
	}
	weighted := !wTotal.isZero()
	div := cTotal.float()
	if weighted {
		div = wTotal.float()
	}
	out := make([]float64, dim)
	var tile struct {
		hi, lo [fedAvgTile]uint64
		bad    [fedAvgTile]uint8
	}
	for at := 0; at < dim; at += fedAvgTile {
		end := min(at+fedAvgTile, dim)
		acc := exactVec{hi: tile.hi[:end-at], lo: tile.lo[:end-at], bad: tile.bad[:end-at]}
		clear(acc.hi)
		clear(acc.lo)
		clear(acc.bad)
		for _, u := range updates {
			scale := StalenessWeight(u.Staleness)
			if weighted {
				scale = float64(u.NumSamples) * scale
			}
			acc.addScaled(u.State[at:end], scale)
		}
		acc.finalize(div, out[at:end])
	}
	return out, nil
}

// MaskedSum computes the plain unweighted sum of the updates divided by the
// total sample count. Secure aggregation uses it: clients pre-scale their
// states by their sample counts and add pairwise masks that cancel in the
// sum, so the server recovers exactly the FedAvg result without seeing any
// individual model.
func MaskedSum(updates []*Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: masked sum of zero updates")
	}
	n := len(updates[0].State)
	total := 0
	for _, u := range updates {
		if len(u.State) != n {
			return nil, fmt.Errorf("fl: update from client %d has %d values, want %d", u.ClientID, len(u.State), n)
		}
		total += u.NumSamples
	}
	if total == 0 {
		return nil, fmt.Errorf("fl: masked sum with zero samples")
	}
	out := make([]float64, n)
	inv := 1.0 / float64(total)
	for _, u := range updates {
		for i, v := range u.State {
			out[i] += v * inv
		}
	}
	return out, nil
}
