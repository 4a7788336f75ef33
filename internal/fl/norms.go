package fl

import "sort"

// normWindow is the trailing window of accepted delta norms that both norm
// bounds — the update screen's and StreamingNormBound's — calibrate against.
// A round reads the median once, when it begins, and its own accepted norms
// join the window only when it ends, in ascending order: neither the verdicts
// of a round nor the window it leaves behind depend on the order in which the
// round's updates arrived.
type normWindow struct {
	history []float64
	round   []float64 // the open round's accepted norms, not yet committed
}

// The window keeps the normWindowSize most recent norms, and begin reports
// no median until it holds normMinHistory: the first rounds calibrate the
// bound.
const (
	normWindowSize = 64
	normMinHistory = 4
)

// begin opens a round: norms recorded by a round that never committed are
// discarded. It returns the median the round calibrates against; ok is false
// while the window is still filling (or its median is not positive).
func (w *normWindow) begin() (median float64, ok bool) {
	w.round = w.round[:0]
	if len(w.history) < normMinHistory {
		return 0, false
	}
	sorted := append([]float64(nil), w.history...)
	sort.Float64s(sorted)
	median = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	return median, median > 0
}

// record notes one norm the open round accepted.
func (w *normWindow) record(norm float64) { w.round = append(w.round, norm) }

// commit closes the round: its norms join the window in ascending order.
func (w *normWindow) commit() {
	sort.Float64s(w.round)
	w.history = append(w.history, w.round...)
	if len(w.history) > normWindowSize {
		w.history = w.history[len(w.history)-normWindowSize:]
	}
	w.round = w.round[:0]
}

// clipDelta writes prev + scale·(state − prev) into dst: the update's delta
// keeps its direction and shrinks to scale times its length.
func clipDelta(dst, prev, state []float64, scale float64) {
	for i := range dst {
		dst[i] = prev[i] + scale*(state[i]-prev[i])
	}
}
