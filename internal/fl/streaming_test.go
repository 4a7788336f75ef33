package fl

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// synthUpdates builds a deterministic batch of updates with varied weights.
func synthUpdates(rng *rand.Rand, n, dim int) []*Update {
	ups := make([]*Update, n)
	for i := range ups {
		state := make([]float64, dim)
		for j := range state {
			state[j] = rng.NormFloat64()
		}
		ups[i] = &Update{ClientID: i, NumSamples: 1 + rng.Intn(9), State: state}
	}
	return ups
}

// foldAll folds a batch in the given order and finalizes.
func foldAll(t *testing.T, agg StreamingAggregator, prev []float64, ups []*Update) []float64 {
	t.Helper()
	agg.Begin(0, prev)
	for _, u := range ups {
		if err := agg.Fold(u); err != nil {
			t.Fatal(err)
		}
	}
	out, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamingFedAvgOrderInvariance is the property the whole streaming
// design rests on: folding any permutation of the batch produces
// bit-identical output, and that output is bit-identical to the
// materialized FedAvg of the same batch.
func TestStreamingFedAvgOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		dim := 1 + rng.Intn(64)
		ups := synthUpdates(rng, n, dim)

		want, err := FedAvg(ups)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewStreamingFedAvg()
		for perm := 0; perm < 5; perm++ {
			shuffled := append([]*Update(nil), ups...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got := foldAll(t, agg, nil, shuffled)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d perm %d coordinate %d: streaming %v != materialized %v",
						trial, perm, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamingFedAvgZeroWeights: all-zero sample counts fall back to the
// plain mean, matching materialized FedAvg.
func TestStreamingFedAvgZeroWeights(t *testing.T) {
	ups := []*Update{
		{ClientID: 0, NumSamples: 0, State: []float64{2, 4}},
		{ClientID: 1, NumSamples: 0, State: []float64{4, 8}},
	}
	want, err := FedAvg(ups)
	if err != nil {
		t.Fatal(err)
	}
	got := foldAll(t, NewStreamingFedAvg(), nil, ups)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coordinate %d: %v != %v", i, got[i], want[i])
		}
	}
	if got[0] != 3 || got[1] != 6 {
		t.Fatalf("zero-weight mean: got %v, want [3 6]", got)
	}
}

// TestStalenessWeight checks the age decay and its effect on the average:
// a stale update counts with weight NumSamples/(1+staleness).
func TestStalenessWeight(t *testing.T) {
	if StalenessWeight(0) != 1 || StalenessWeight(-3) != 1 {
		t.Fatal("fresh updates must keep full weight")
	}
	if StalenessWeight(1) != 0.5 || StalenessWeight(3) != 0.25 {
		t.Fatalf("decay wrong: s=1 %v, s=3 %v", StalenessWeight(1), StalenessWeight(3))
	}
	// Two clients, equal sample counts; the stale one (s=1) counts half.
	ups := []*Update{
		{ClientID: 0, NumSamples: 4, State: []float64{0}},
		{ClientID: 1, NumSamples: 4, Staleness: 1, State: []float64{3}},
	}
	got := foldAll(t, NewStreamingFedAvg(), nil, ups)
	// (4*0 + 2*3) / (4 + 2) = 1
	if got[0] != 1 {
		t.Fatalf("staleness-weighted mean: got %v, want 1", got[0])
	}
}

// TestStreamingFedAvgRejectsMismatch: a wrong-dimension fold errors without
// corrupting the accumulator.
func TestStreamingFedAvgRejectsMismatch(t *testing.T) {
	agg := NewStreamingFedAvg()
	agg.Begin(0, []float64{0, 0})
	if err := agg.Fold(&Update{NumSamples: 1, State: []float64{1, 2, 3}}); err == nil {
		t.Fatal("accepted wrong-dimension update")
	}
	if err := agg.Fold(&Update{NumSamples: 1, State: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	out, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("accumulator corrupted: %v", out)
	}
}

// TestStreamingFedAvgPoisonOnOverflow: contributions at or beyond the
// fixed-point magnitude bound poison the affected coordinate to NaN instead
// of silently wrapping.
func TestStreamingFedAvgPoisonOnOverflow(t *testing.T) {
	agg := NewStreamingFedAvg()
	agg.Begin(0, nil)
	huge := math.Ldexp(1, 41) // 2^41 >= fixMaxMag
	if err := agg.Fold(&Update{NumSamples: 1, State: []float64{1, huge}}); err != nil {
		t.Fatal(err)
	}
	out, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("untainted coordinate changed: %v", out[0])
	}
	if !math.IsNaN(out[1]) {
		t.Fatalf("overflowed coordinate should finalize NaN, got %v", out[1])
	}
}

// TestStreamingNormBoundWindow: the bound calibrates on completed rounds —
// wide open while the history warms up, then clipping an outlier delta to
// multiple x median of the trailing window, independent of arrival order.
func TestStreamingNormBoundWindow(t *testing.T) {
	prev := make([]float64, 4)
	agg := NewStreamingNormBound(2)

	// Warmup rounds: unit-norm deltas, no clipping possible (bound +Inf).
	for round := 0; round < 3; round++ {
		agg.Begin(round, prev)
		for c := 0; c < 3; c++ {
			state := []float64{1, 0, 0, 0} // delta norm 1
			if err := agg.Fold(&Update{ClientID: c, NumSamples: 1, State: state}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := agg.Finalize(); err != nil {
			t.Fatal(err)
		}
	}

	// Calibrated round: bound = 2 x median(1) = 2. An update with delta norm
	// 10 must fold clipped to norm 2; its neighbors are untouched.
	agg.Begin(3, prev)
	if err := agg.Fold(&Update{ClientID: 0, NumSamples: 1, State: []float64{10, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := agg.Fold(&Update{ClientID: 1, NumSamples: 1, State: []float64{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	out, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// (2 + 1) / 2 = 1.5 in the first coordinate.
	if math.Abs(out[0]-1.5) > 1e-12 {
		t.Fatalf("clipped average: got %v, want 1.5", out[0])
	}

	// Non-finite updates are dropped, not folded.
	agg.Begin(4, prev)
	if err := agg.Fold(&Update{ClientID: 0, NumSamples: 1, State: []float64{math.NaN(), 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Finalize(); err == nil {
		t.Fatal("a round of only non-finite updates should fail to finalize")
	}
}

// TestStreamingNormBoundExportImport: the trailing window survives a
// checkpoint round-trip, so a resumed aggregator clips with the same bound.
func TestStreamingNormBoundExportImport(t *testing.T) {
	a := NewStreamingNormBound(1)
	a.ImportNorms([]float64{1, 2, 3, 4, 5})
	norms := a.ExportNorms()
	if len(norms) != 5 {
		t.Fatalf("exported %d norms, want 5", len(norms))
	}
	b := NewStreamingNormBound(1)
	b.ImportNorms(norms)
	prev := []float64{0}
	a.Begin(0, prev)
	b.Begin(0, prev)
	// Median of {1..5} is 3: a delta of norm 5 clips to 3 in both.
	for _, agg := range []*StreamingNormBound{a, b} {
		if err := agg.Fold(&Update{NumSamples: 1, State: []float64{5}}); err != nil {
			t.Fatal(err)
		}
	}
	av, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	bv, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if av[0] != bv[0] || av[0] != 3 {
		t.Fatalf("resumed bound differs: %v vs %v (want 3)", av[0], bv[0])
	}
}

// TestServerStreamingRound drives the fl.Server streaming API end to end:
// BeginRound/Offer/FinishRound must match a materialized Aggregate of the
// same batch bit for bit, verdicts must reflect the screen, and AbortRound
// must leave the state untouched.
func TestServerStreamingRound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := 16
	initial := make([]float64, dim)
	ups := synthUpdates(rng, 8, dim)

	mkServer := func() *Server {
		srv, err := NewServer(append([]float64(nil), initial...), &fedAvgDefense{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetScreen(NewScreen(ScreenConfig{}))
		return srv
	}

	mat := mkServer()
	cp := make([]*Update, len(ups))
	for i, u := range ups {
		cu := *u
		cu.State = append([]float64(nil), u.State...)
		cp[i] = &cu
	}
	if err := mat.Aggregate(cp); err != nil {
		t.Fatal(err)
	}

	str := mkServer()
	if err := str.BeginRound(NewStreamingFedAvg()); err != nil {
		t.Fatal(err)
	}
	if _, err := str.Offer(nil); err == nil {
		t.Fatal("Offer(nil) should error")
	}
	for i := len(ups) - 1; i >= 0; i-- { // reversed arrival order
		v, err := str.Offer(ups[i])
		if err != nil {
			t.Fatal(err)
		}
		if v != OfferAccepted {
			t.Fatalf("update %d verdict %v, want accepted", i, v)
		}
	}
	// A NaN payload is rejected per-arrival, not folded.
	if v, err := str.Offer(&Update{ClientID: 98, NumSamples: 1, State: nanState(dim)}); err != nil || v != OfferRejected {
		t.Fatalf("NaN offer: verdict %v err %v, want rejected/nil", v, err)
	}
	if got := str.StreamCount(); got != len(ups) {
		t.Fatalf("StreamCount %d, want %d", got, len(ups))
	}
	if err := str.FinishRound(); err != nil {
		t.Fatal(err)
	}

	ms, ss := mat.GlobalState(), str.GlobalState()
	for i := range ms {
		if ms[i] != ss[i] {
			t.Fatalf("coordinate %d: materialized %v != streamed %v", i, ms[i], ss[i])
		}
	}
	if mat.Round() != str.Round() {
		t.Fatalf("rounds diverged: %d vs %d", mat.Round(), str.Round())
	}

	// Abort: state and round stay put, and a new round can begin.
	if err := str.BeginRound(NewStreamingFedAvg()); err != nil {
		t.Fatal(err)
	}
	if err := str.BeginRound(NewStreamingFedAvg()); err == nil {
		t.Fatal("double BeginRound should error")
	}
	if _, err := str.Offer(ups[0]); err != nil {
		t.Fatal(err)
	}
	str.AbortRound()
	after := str.GlobalState()
	for i := range ss {
		if after[i] != ss[i] {
			t.Fatal("AbortRound changed the global state")
		}
	}
	if _, err := str.Offer(ups[0]); err == nil {
		t.Fatal("Offer after AbortRound should error")
	}
	// An empty round fails to finish.
	if err := str.BeginRound(NewStreamingFedAvg()); err != nil {
		t.Fatal(err)
	}
	if err := str.FinishRound(); err == nil {
		t.Fatal("FinishRound with zero updates should error")
	}
}

// TestStreamingScreenClipOrderInvariant: the screen's norm bound is fixed
// when the round begins, so a streamed round's aggregate, verdicts and the
// norm window it leaves behind do not depend on arrival order. With history
// {1,3} and NormMultiple 2 the bound is 4 for the whole round: the norm-7
// delta is clipped to 4 wherever it arrives and the mean is exactly 4.
func TestStreamingScreenClipOrderInvariant(t *testing.T) {
	ups := []*Update{
		{ClientID: 0, NumSamples: 1, State: []float64{4}},
		{ClientID: 1, NumSamples: 1, State: []float64{4}},
		{ClientID: 2, NumSamples: 1, State: []float64{7}},
	}
	// The last order runs retained (no aggregator): same bound, same bits.
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}, {2, 1, 0}}
	for i, order := range orders {
		srv, err := NewServer([]float64{0}, &fedAvgDefense{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScreen(ScreenConfig{ClipNorms: true, MinHistory: 2, NormMultiple: 2, RejectMultiple: 10})
		sc.ImportState(ScreenState{Norms: []float64{1, 3}})
		srv.SetScreen(sc)
		var agg StreamingAggregator
		if i < len(orders)-1 {
			agg = NewStreamingFedAvg()
		}
		if err := srv.BeginRound(agg); err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := srv.Offer(ups[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.FinishRound(); err != nil {
			t.Fatal(err)
		}
		if got := srv.GlobalState()[0]; got != 4 {
			t.Errorf("order %v: aggregate %v, want 4", order, got)
		}
		rep, _ := srv.LastScreenReport()
		sort.Ints(rep.Accepted)
		if !slices.Equal(rep.Accepted, []int{0, 1, 2}) || !slices.Equal(rep.Clipped, []int{2}) || len(rep.Rejected) != 0 {
			t.Errorf("order %v: report %+v, want all accepted and client 2 clipped", order, rep)
		}
		if norms := sc.ExportState().Norms; !slices.Equal(norms, []float64{1, 3, 4, 4, 4}) {
			t.Errorf("order %v: norm window %v, want [1 3 4 4 4]", order, norms)
		}
	}
}

func nanState(dim int) []float64 {
	s := make([]float64, dim)
	s[0] = math.NaN()
	return s
}

// fedAvgDefense is a minimal streaming-capable defense for server tests.
type fedAvgDefense struct{}

func (d *fedAvgDefense) Name() string                                  { return "test-fedavg" }
func (d *fedAvgDefense) Bind(ModelInfo) error                          { return nil }
func (d *fedAvgDefense) OnGlobalModel(_, _ int, g []float64) []float64 { return g }
func (d *fedAvgDefense) BeforeUpload(int, []float64, *Update)          {}
func (d *fedAvgDefense) Aggregate(_ int, _ []float64, ups []*Update) ([]float64, error) {
	return FedAvg(ups)
}
func (d *fedAvgDefense) StreamingAggregator() StreamingAggregator { return NewStreamingFedAvg() }
