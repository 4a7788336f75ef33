package fl

import (
	"fmt"
	"math"
)

// StreamingAggregator folds one round's updates into a running accumulator
// as they arrive, instead of materializing the whole cohort in memory:
// server memory stays O(model), not O(clients × model). Begin arms the
// aggregator for a round, Fold consumes one update (the caller may release
// the update's buffer immediately after — implementations never retain it),
// and Finalize produces the next global state.
//
// Implementations built on the exact fixed-point accumulator (StreamingFedAvg)
// are fold-order invariant: any arrival order produces bit-identical output,
// which is what lets the streaming path match the materialized sorted-order
// path bit for bit, and lets async mode fold late updates whenever they land.
type StreamingAggregator interface {
	// Name identifies the rule, e.g. "fedavg".
	Name() string
	// Begin resets the accumulator for a round starting from prevGlobal.
	Begin(round int, prevGlobal []float64)
	// Fold accumulates one update. The update and its State buffer are not
	// retained. A non-nil error poisons the round (caller's choice to abort
	// or evict the sender); the update is not counted.
	Fold(u *Update) error
	// Finalize returns the aggregated next global state.
	Finalize() ([]float64, error)
}

// StreamingCapable is implemented by defenses whose server-side aggregation
// rule can run as a StreamingAggregator. Returning nil declares the rule
// non-streaming for its current configuration (Krum and Multi-Krum score
// each update against the whole cohort, so they inherently need every
// update materialized); the flnet server then falls back to materialized
// aggregation and raises a telemetry warning.
type StreamingCapable interface {
	StreamingAggregator() StreamingAggregator
}

// StreamingOf returns def's streaming aggregator, or nil when the defense
// does not (or cannot) stream.
func StreamingOf(def Defense) StreamingAggregator {
	if sc, ok := def.(StreamingCapable); ok {
		return sc.StreamingAggregator()
	}
	return nil
}

// CohortAware is implemented by defenses whose correctness depends on the
// exact per-round participant set. Secure aggregation is the canonical
// case: pairwise masks only cancel when both endpoints of every mask edge
// aggregate in the same round, so under client sampling the mask graph must
// be restricted to the sampled cohort (paper Fig. 6 semantics) — on the
// server before masked aggregation, and on every sampled client before it
// masks its upload. The flnet layer calls SetRoundCohort on both sides and
// ships the cohort ids in the round's global broadcast.
type CohortAware interface {
	// SetRoundCohort announces the client ids sampled into round. The slice
	// is not retained (implementations copy).
	SetRoundCohort(round int, cohort []int)
}

// StalenessWeight is the age decay applied to an update aggregated s rounds
// after the round it trained against: 1/(1+s). Fresh updates (s ≤ 0) keep
// full weight, so synchronous rounds are unaffected.
func StalenessWeight(s int) float64 {
	if s <= 0 {
		return 1
	}
	return 1 / float64(1+s)
}

// StreamingFedAvg is the streaming form of FedAvg: the sample-count- and
// staleness-weighted average, accumulated exactly so fold order cannot
// change the result. FedAvg itself is defined as this aggregator folded
// over the batch, which is why the two paths agree bit for bit.
//
// A zero total weight falls back to the (staleness-weighted) mean of the
// folded states, preserving classic FedAvg's zero-weight behavior. The mean
// and the weighted sum share one accumulator: while every weight seen so far
// is zero it holds Σ x·decay, the numerator of the mean; the first non-zero
// weight discards that sum (the weighted sum of zero-weight updates is zero,
// bar the poison a non-finite x leaves, which is kept) and from then on it
// holds Σ x·w. Fold refuses a negative weight and a non-zero one under
// 2^-60 (a staleness past 2^60 rounds), so the total is zero exactly while
// every weight is, and the result is the same in any arrival order.
type StreamingFedAvg struct {
	dim    int // -1 until the first fold fixes it
	sum    exactVec
	wTotal fixAcc
	cTotal fixAcc
	count  int
}

var _ StreamingAggregator = (*StreamingFedAvg)(nil)

// NewStreamingFedAvg returns an armed aggregator (Begin is optional for the
// first round).
func NewStreamingFedAvg() *StreamingFedAvg {
	a := &StreamingFedAvg{}
	a.Begin(0, nil)
	return a
}

// Name implements StreamingAggregator.
func (a *StreamingFedAvg) Name() string { return "fedavg" }

// Begin implements StreamingAggregator. An empty prevGlobal leaves the
// dimension to be fixed by the first fold.
func (a *StreamingFedAvg) Begin(_ int, prevGlobal []float64) {
	a.wTotal, a.cTotal = fixAcc{}, fixAcc{}
	a.count = 0
	if len(prevGlobal) == 0 {
		a.dim = -1
		return
	}
	a.setDim(len(prevGlobal))
}

func (a *StreamingFedAvg) setDim(n int) {
	a.dim = n
	a.sum.reset(n)
}

// Fold implements StreamingAggregator.
func (a *StreamingFedAvg) Fold(u *Update) error {
	if err := admit(u, a.dim); err != nil {
		return err
	}
	if a.dim < 0 {
		a.setDim(len(u.State))
	}
	wasZero := a.wTotal.isZero()
	w, decay, err := weigh(u, &a.wTotal, &a.cTotal)
	if err != nil {
		return err
	}
	scale := w
	if a.wTotal.isZero() {
		scale = decay
	} else if wasZero && a.count > 0 {
		a.sum.forgetFinite()
	}
	a.sum.addScaled(u.State, scale)
	a.count++
	return nil
}

// admit refuses an update no fold can take: nil, with a negative sample
// count, or with other than dim values (any length while dim is negative).
func admit(u *Update, dim int) error {
	switch {
	case u == nil:
		return fmt.Errorf("fl: fold of nil update")
	case u.NumSamples < 0:
		return fmt.Errorf("fl: update from client %d has negative sample count %d", u.ClientID, u.NumSamples)
	case dim >= 0 && len(u.State) != dim:
		return fmt.Errorf("fl: update from client %d has %d values, want %d", u.ClientID, len(u.State), dim)
	}
	return nil
}

// weigh adds u's weight (sample count × staleness decay) and its decay to
// the totals and returns both, or refuses a weight the totals cannot take.
// A non-zero weight under 2^-60 would add nothing to wTotal, and Fold reads
// wTotal to tell whether every weight so far is zero, so it is refused too.
// A zero-sample update weighs its decay alone, which the zero-weight mean
// divides by cTotal, so its decay must clear 2^-60 the same way.
func weigh(u *Update, wTotal, cTotal *fixAcc) (w, decay float64, err error) {
	decay = StalenessWeight(u.Staleness)
	w = float64(u.NumSamples) * decay
	counted := w
	if u.NumSamples == 0 {
		counted = decay
	}
	tooSmall := counted != 0 && counted < 1.0/(1<<fixFracBits)
	if tooSmall || !wTotal.addFloat(w) || !cTotal.addFloat(decay) {
		return 0, 0, fmt.Errorf("fl: update from client %d has unrepresentable weight %g", u.ClientID, counted)
	}
	return w, decay, nil
}

// Count returns how many updates have been folded since Begin.
func (a *StreamingFedAvg) Count() int { return a.count }

// Finalize implements StreamingAggregator.
func (a *StreamingFedAvg) Finalize() ([]float64, error) {
	if a.count == 0 {
		return nil, fmt.Errorf("fl: FedAvg of zero updates")
	}
	div := a.wTotal.float()
	if a.wTotal.isZero() {
		div = a.cTotal.float()
	}
	out := make([]float64, a.dim)
	a.sum.finalize(div, out)
	return out, nil
}

// MemoryBytes reports the accumulator footprint (the aggregation
// peak-memory gauge adds it to the in-flight update payload).
func (a *StreamingFedAvg) MemoryBytes() int { return a.sum.bytes() + 2*16 }

// StreamingNormBound is the streaming form of norm-bounded averaging: each
// arriving update's delta (state − prevGlobal) is clipped to
// multiple × median of a trailing window of previously accepted norms, then
// folded into a StreamingFedAvg.
//
// The bound deliberately differs from NormBoundedFedAvg's: the materialized
// rule clips against the median of the *current* round (it has every update
// in hand), which a per-arrival fold cannot know. The streaming rule
// calibrates on completed rounds instead — the first rounds pass unclipped
// while the window fills (the same warm-up as the screen's), and within
// a round the bound is fixed at Begin, so verdicts are independent of
// arrival order. Non-finite updates are dropped, mirroring the materialized
// rule's finiteness filter.
type StreamingNormBound struct {
	inner    *StreamingFedAvg
	multiple float64
	norms    normWindow
	prev     []float64
	bound    float64
	scratch  []float64
	dropped  int
}

var _ StreamingAggregator = (*StreamingNormBound)(nil)

// NewStreamingNormBound returns a streaming norm-bound aggregator; multiple
// ≤ 0 means 1 (clip to the median itself), matching NormBoundedFedAvg.
func NewStreamingNormBound(multiple float64) *StreamingNormBound {
	if multiple <= 0 {
		multiple = 1
	}
	return &StreamingNormBound{
		inner:    NewStreamingFedAvg(),
		multiple: multiple,
	}
}

// Name implements StreamingAggregator.
func (a *StreamingNormBound) Name() string { return "norm-bound" }

// Begin implements StreamingAggregator. The round's clip bound — multiple ×
// the window's median, +Inf while the window is still calibrating — is fixed
// here, so every fold of the round sees the same bound regardless of arrival
// order.
func (a *StreamingNormBound) Begin(round int, prevGlobal []float64) {
	a.inner.Begin(round, prevGlobal)
	a.prev = prevGlobal
	a.dropped = 0
	a.bound = math.Inf(1)
	if med, ok := a.norms.begin(); ok {
		a.bound = a.multiple * med
	}
}

// Fold implements StreamingAggregator.
func (a *StreamingNormBound) Fold(u *Update) error {
	if u == nil {
		return fmt.Errorf("fl: fold of nil update")
	}
	if len(a.prev) > 0 && len(u.State) != len(a.prev) {
		return fmt.Errorf("fl: update from client %d has %d values, want %d", u.ClientID, len(u.State), len(a.prev))
	}
	if !isFinite(u.State) {
		a.dropped++
		return nil
	}
	norm := DeltaNorm(a.prev, u.State)
	if len(a.prev) == 0 || norm <= a.bound {
		if err := a.inner.Fold(u); err != nil {
			return err
		}
		a.norms.record(norm)
		return nil
	}
	// Clip: keep the delta's direction, cap its magnitude at the bound.
	if cap(a.scratch) < len(u.State) {
		a.scratch = make([]float64, len(u.State))
	}
	a.scratch = a.scratch[:len(u.State)]
	clipDelta(a.scratch, a.prev, u.State, a.bound/norm)
	cu := *u
	cu.State = a.scratch
	if err := a.inner.Fold(&cu); err != nil {
		return err
	}
	a.norms.record(a.bound)
	return nil
}

// Finalize implements StreamingAggregator: the round's accepted norms join
// the trailing window before the inner average finalizes.
func (a *StreamingNormBound) Finalize() ([]float64, error) {
	if a.inner.Count() == 0 && a.dropped > 0 {
		return nil, fmt.Errorf("fl: norm-bounded FedAvg: every update carries non-finite values")
	}
	a.norms.commit()
	return a.inner.Finalize()
}

// MemoryBytes reports the accumulator footprint.
func (a *StreamingNormBound) MemoryBytes() int {
	return a.inner.MemoryBytes() + (len(a.norms.history)+cap(a.scratch))*8
}

// ExportNorms copies the trailing accepted-norm window for checkpointing,
// so a crash/resume keeps clipping against the same calibration.
func (a *StreamingNormBound) ExportNorms() []float64 {
	return append([]float64(nil), a.norms.history...)
}

// ImportNorms restores a checkpointed norm window.
func (a *StreamingNormBound) ImportNorms(norms []float64) {
	a.norms.history = append(a.norms.history[:0], norms...)
}

// NormCarrier is implemented by streaming aggregators with calibration
// state worth checkpointing (StreamingNormBound's trailing norm window).
type NormCarrier interface {
	ExportNorms() []float64
	ImportNorms([]float64)
}
