package fl

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestScreenRejectsNonFinite(t *testing.T) {
	sc := NewScreen(ScreenConfig{})
	prev := []float64{0, 0}
	kept, rep := sc.Apply(0, prev, []*Update{
		{ClientID: 0, State: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, State: []float64{math.NaN(), 2}, NumSamples: 1},
		{ClientID: 2, State: []float64{1, math.Inf(-1)}, NumSamples: 1},
	})
	if len(kept) != 1 || kept[0].ClientID != 0 {
		t.Fatalf("kept = %+v", kept)
	}
	if len(rep.Rejected) != 2 {
		t.Fatalf("rejected = %+v", rep.Rejected)
	}
	for _, v := range rep.Rejected {
		if !strings.Contains(v.Reason, "non-finite") {
			t.Fatalf("reason = %q", v.Reason)
		}
	}
	if got := rep.RejectedIDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("rejected ids = %v", got)
	}
}

func TestScreenRejectsStructuralFaults(t *testing.T) {
	sc := NewScreen(ScreenConfig{})
	prev := []float64{0, 0}
	kept, rep := sc.Apply(0, prev, []*Update{
		{ClientID: 0, State: []float64{1}, NumSamples: 1},     // wrong length
		{ClientID: 1, State: []float64{1, 2}, NumSamples: -5}, // negative weight
		{ClientID: 2, State: []float64{1, 2}, NumSamples: 0},  // fine
	})
	if len(kept) != 1 || kept[0].ClientID != 2 {
		t.Fatalf("kept = %+v", kept)
	}
	if len(rep.Rejected) != 2 {
		t.Fatalf("rejected = %+v", rep.Rejected)
	}
	if !strings.Contains(rep.Rejected[0].Reason, "values") {
		t.Fatalf("length reason = %q", rep.Rejected[0].Reason)
	}
	if !strings.Contains(rep.Rejected[1].Reason, "sample count") {
		t.Fatalf("weight reason = %q", rep.Rejected[1].Reason)
	}
}

func TestScreenQuarantineLifecycle(t *testing.T) {
	sc := NewScreen(ScreenConfig{QuarantineRounds: 2})
	prev := []float64{0}
	poison := func(round int) ScreenReport {
		_, rep := sc.Apply(round, prev, []*Update{
			{ClientID: 7, State: []float64{math.NaN()}, NumSamples: 1},
		})
		return rep
	}
	clean := func(round int) ([]*Update, ScreenReport) {
		return sc.Apply(round, prev, []*Update{
			{ClientID: 7, State: []float64{1}, NumSamples: 1},
		})
	}

	// Round 0: first offense quarantines immediately (Strikes defaults to 1).
	rep := poison(0)
	if len(rep.NewlyQuarantined) != 1 || rep.NewlyQuarantined[0] != 7 {
		t.Fatalf("round 0: %+v", rep)
	}
	if sc.Offenses(7) != 1 {
		t.Fatalf("offenses = %d", sc.Offenses(7))
	}

	// Rounds 1-2: even clean updates are excluded while the penalty lasts.
	for round := 1; round <= 2; round++ {
		if !sc.Quarantined(7, round) {
			t.Fatalf("round %d: client should be quarantined", round)
		}
		kept, rep := clean(round)
		if len(kept) != 0 || len(rep.Quarantined) != 1 {
			t.Fatalf("round %d: kept=%d report=%+v", round, len(kept), rep)
		}
		if len(rep.NewlyQuarantined) != 0 {
			t.Fatalf("round %d: penalty must not restart: %+v", round, rep)
		}
	}

	// Round 3: the penalty expired; the client participates again.
	if sc.Quarantined(7, 3) {
		t.Fatal("round 3: quarantine should have expired")
	}
	kept, rep := clean(3)
	if len(kept) != 1 || len(rep.Accepted) != 1 {
		t.Fatalf("round 3: %+v", rep)
	}
}

func TestScreenStrikesBudget(t *testing.T) {
	sc := NewScreen(ScreenConfig{Strikes: 2, QuarantineRounds: 1})
	prev := []float64{0}
	bad := []*Update{{ClientID: 3, State: []float64{math.Inf(1)}, NumSamples: 1}}

	_, rep := sc.Apply(0, prev, bad)
	if len(rep.NewlyQuarantined) != 0 {
		t.Fatalf("first strike should not quarantine: %+v", rep)
	}
	_, rep = sc.Apply(1, prev, bad)
	if len(rep.NewlyQuarantined) != 1 {
		t.Fatalf("second strike should quarantine: %+v", rep)
	}
}

func TestScreenQuarantineDisabled(t *testing.T) {
	sc := NewScreen(ScreenConfig{QuarantineRounds: -1})
	prev := []float64{0}
	bad := []*Update{{ClientID: 0, State: []float64{math.NaN()}, NumSamples: 1}}
	_, rep := sc.Apply(0, prev, bad)
	if len(rep.NewlyQuarantined) != 0 {
		t.Fatalf("quarantine disabled: %+v", rep)
	}
	if sc.Quarantined(0, 1) {
		t.Fatal("client should not be quarantined")
	}
}

func TestScreenClipNorms(t *testing.T) {
	sc := NewScreen(ScreenConfig{ClipNorms: true, MinHistory: 2, NormMultiple: 2, RejectMultiple: 4})
	prev := []float64{0, 0}

	// Calibration round: three accepted norm-1 deltas build the history.
	kept, rep := sc.Apply(0, prev, mkUpdates(
		[]float64{1, 0},
		[]float64{0, 1},
		[]float64{1, 0},
	))
	if len(kept) != 3 || len(rep.Clipped) != 0 {
		t.Fatalf("calibration round: %+v", rep)
	}

	// Norm 3 exceeds the clip bound (2x median 1) but not the reject bound
	// (4x): the update survives, scaled down to the bound.
	in := &Update{ClientID: 9, State: []float64{3, 0}, NumSamples: 1}
	kept, rep = sc.Apply(1, prev, []*Update{in})
	if len(kept) != 1 || len(rep.Clipped) != 1 {
		t.Fatalf("clip round: %+v", rep)
	}
	if norm := DeltaNorm(prev, kept[0].State); math.Abs(norm-2) > 1e-9 {
		t.Fatalf("clipped norm = %g, want 2", norm)
	}
	if in.State[0] != 3 {
		t.Fatal("input update must not be mutated")
	}

	// Norm 10 exceeds the reject bound: dropped as an offense.
	kept, rep = sc.Apply(2, prev, []*Update{{ClientID: 8, State: []float64{10, 0}, NumSamples: 1}})
	if len(kept) != 0 || len(rep.Rejected) != 1 {
		t.Fatalf("reject round: %+v", rep)
	}
	if !strings.Contains(rep.Rejected[0].Reason, "delta norm") {
		t.Fatalf("reason = %q", rep.Rejected[0].Reason)
	}
}

func TestServerAggregateWithScreen(t *testing.T) {
	srv, err := NewServer([]float64{0, 0}, &noneDefense{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetScreen(NewScreen(ScreenConfig{}))

	// A NaN bomb among honest updates: the survivors aggregate, the report
	// records the rejection, and the global state stays finite.
	err = srv.Aggregate([]*Update{
		{ClientID: 0, State: []float64{2, 2}, NumSamples: 1},
		{ClientID: 1, State: []float64{4, 4}, NumSamples: 1},
		{ClientID: 2, State: []float64{math.NaN(), math.Inf(1)}, NumSamples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	state := srv.GlobalState()
	if state[0] != 3 || state[1] != 3 {
		t.Fatalf("global = %v, want [3 3]", state)
	}
	rep, ok := srv.LastScreenReport()
	if !ok || len(rep.Rejected) != 1 || rep.Rejected[0].ClientID != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if got := srv.ScreenReports(); len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}

	// A round where nothing survives fails without touching the state.
	err = srv.Aggregate([]*Update{
		{ClientID: 0, State: []float64{math.NaN(), 0}, NumSamples: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "survived screening") {
		t.Fatalf("want screening failure, got %v", err)
	}
	if got := srv.GlobalState(); got[0] != 3 {
		t.Fatalf("failed round must not move the state: %v", got)
	}
}

func TestServerAggregateValidatesLengthWithoutScreen(t *testing.T) {
	srv, err := NewServer([]float64{0, 0}, &noneDefense{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Aggregate([]*Update{
		{ClientID: 0, State: []float64{1, 1}, NumSamples: 1},
		{ClientID: 1, State: []float64{1}, NumSamples: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("want a length validation error, got %v", err)
	}
	if srv.Round() != 0 {
		t.Fatal("failed round must not advance the counter")
	}
}

// FuzzScreen feeds arbitrary byte payloads reinterpreted as float64 vectors
// through the screen: whatever the bits, Apply must not panic and no
// non-finite coordinate may survive into the kept set.
func FuzzScreen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(math.Inf(-1)))
	f.Add(buf)

	f.Fuzz(func(t *testing.T, raw []byte) {
		state := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			state = append(state, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		prev := make([]float64, len(state))
		sc := NewScreen(ScreenConfig{ClipNorms: true})
		kept, rep := sc.Apply(0, prev, []*Update{
			{ClientID: 1, State: state, NumSamples: 1},
		})
		for _, u := range kept {
			for i, v := range u.State {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite value %g at %d survived screening", v, i)
				}
			}
		}
		if len(kept)+len(rep.Rejected) != 1 {
			t.Fatalf("update neither kept nor rejected: %+v", rep)
		}
	})
}
