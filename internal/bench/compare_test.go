package bench

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestCompareResultsThreshold(t *testing.T) {
	rec := map[string]Result{
		"fast":    {NsPerOp: 1000, AllocsPerOp: 0},
		"edge":    {NsPerOp: 1000, AllocsPerOp: 0},
		"slow":    {NsPerOp: 1000, AllocsPerOp: 0},
		"allocs":  {NsPerOp: 1000, AllocsPerOp: 0},
		"hadheap": {NsPerOp: 1000, AllocsPerOp: 5},
		"missing": {NsPerOp: 1000},
		"pooled":  {NsPerOp: 1000, AllocsPerOp: 40, BytesPerOp: 9_000},
		"copies":  {NsPerOp: 1000, AllocsPerOp: 76, BytesPerOp: 760_000},
	}
	cur := map[string]Result{
		"fast":    {NsPerOp: 900, AllocsPerOp: 0},
		"edge":    {NsPerOp: 1150, AllocsPerOp: 0},                        // exactly +15%: within budget
		"slow":    {NsPerOp: 1151, AllocsPerOp: 0},                        // past the budget
		"allocs":  {NsPerOp: 800, AllocsPerOp: 1},                         // faster but newly allocating
		"hadheap": {NsPerOp: 1100, AllocsPerOp: 9},                        // alloc growth only gates 0-alloc entries
		"pooled":  {NsPerOp: 1000, AllocsPerOp: 41, BytesPerOp: 60_000},   // a pool refill: inside the slack
		"copies":  {NsPerOp: 900, AllocsPerOp: 77, BytesPerOp: 4_650_000}, // faster, but a state-sized copy per op is back
	}
	entries := compareResults(rec, cur, 0.15, nil)
	verdict := make(map[string]CompareEntry, len(entries))
	for _, e := range entries {
		verdict[e.Name] = e
	}
	for name, wantRegressed := range map[string]bool{
		"fast": false, "edge": false, "slow": true, "allocs": true, "hadheap": false, "pooled": false, "copies": true,
	} {
		if verdict[name].Regressed != wantRegressed {
			t.Errorf("%s: regressed = %v, want %v", name, verdict[name].Regressed, wantRegressed)
		}
	}
	if !verdict["allocs"].AllocsGrew || !verdict["copies"].BytesGrew {
		t.Error("allocs: AllocsGrew, or copies: BytesGrew, not flagged")
	}
	if verdict["missing"].Skipped != "not measured" {
		t.Errorf("missing: skipped = %q", verdict["missing"].Skipped)
	}
	// Entries must come back sorted by name for stable gate output.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name > entries[i].Name {
			t.Fatalf("entries not sorted: %s before %s", entries[i-1].Name, entries[i].Name)
		}
	}
}

func TestCompareResultsSkipReasons(t *testing.T) {
	rec := map[string]Result{
		"gone":  {NsPerOp: 500},
		"other": {NsPerOp: 500},
	}
	cur := map[string]Result{"other": {NsPerOp: 500}}
	entries := compareResults(rec, cur, 0.15, map[string]string{"gone": "recorded benchmark unknown to this suite"})
	for _, e := range entries {
		switch e.Name {
		case "gone":
			if e.Skipped == "" || e.Regressed {
				t.Errorf("gone: skipped=%q regressed=%v", e.Skipped, e.Regressed)
			}
		case "other":
			if e.Skipped != "" || e.Regressed {
				t.Errorf("other: skipped=%q regressed=%v", e.Skipped, e.Regressed)
			}
		}
	}
}

func TestMergeMinKeepsFastest(t *testing.T) {
	cur := map[string]Result{
		"a": {NsPerOp: 2000, AllocsPerOp: 3, BytesPerOp: 96, Iterations: 10},
		"b": {NsPerOp: 1000, AllocsPerOp: 0, Iterations: 10},
	}
	mergeMin(cur, map[string]Result{
		"a": {NsPerOp: 1500, AllocsPerOp: 0, BytesPerOp: 0, Iterations: 20},
		"b": {NsPerOp: 3000, AllocsPerOp: 2, BytesPerOp: 64, Iterations: 5},
	})
	if cur["a"].NsPerOp != 1500 || cur["a"].AllocsPerOp != 0 {
		t.Errorf("a = %+v, want min ns 1500 and min allocs 0", cur["a"])
	}
	if cur["b"].NsPerOp != 1000 || cur["b"].AllocsPerOp != 0 {
		t.Errorf("b = %+v, want original min kept", cur["b"])
	}
}

func TestCompareEntryString(t *testing.T) {
	e := CompareEntry{Name: "matmul", RecordedNs: 1000, MeasuredNs: 1200, Ratio: 1.2, Regressed: true}
	if s := e.String(); !strings.Contains(s, "REGRESSED") || !strings.Contains(s, "+20.0%") {
		t.Errorf("regressed string = %q", s)
	}
	e = CompareEntry{Name: "matmul", Skipped: "not measured"}
	if s := e.String(); !strings.Contains(s, "skipped") {
		t.Errorf("skipped string = %q", s)
	}
}

// TestRunCompareDoctoredBaseline proves the gate end-to-end at the logic
// level without timing anything real: comparing a file whose recorded
// snapshot is impossibly fast must fail, since no rerun can undercut it.
// (The Makefile-level proof — make bench-check against a deliberately slowed
// kernel — is run manually; see README "Performance".)
func TestRunCompareDoctoredBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	path := t.TempDir() + "/bench.json"
	err := UpdateFile(path, func(f *File) {
		f.Current = Snapshot{
			GOMAXPROCS: 0, // leave per-result stamps authoritative
			Results: map[string]Result{
				// 1 ns/op is unachievable: the gate must report a regression.
				"matmul": {NsPerOp: 1, AllocsPerOp: 0},
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, ok, err := RunCompare(path, 0.15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("gate passed against an impossibly fast recorded snapshot")
	}
	if len(entries) != 1 || !entries[0].Regressed {
		t.Fatalf("entries = %+v", entries)
	}
}

// TestRunCompareSkipsOtherTier checks that an entry recorded at another
// kernel tier is skipped, not gated, and that a file with nothing left to
// compare measures nothing (RunOnly would read no names as the whole suite).
func TestRunCompareSkipsOtherTier(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	err := UpdateFile(path, func(f *File) {
		f.Current = Snapshot{Results: map[string]Result{
			"matmul": {NsPerOp: 1, ISA: "not-" + tensor.KernelISA(), Iterations: MinIterations},
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, ok, err := RunCompare(path, 0.15, func(string, ...any) { t.Error("a benchmark ran") })
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(entries) != 1 || !strings.Contains(entries[0].Skipped, "kernel tier") {
		t.Fatalf("ok = %v, entries = %+v; want the one entry skipped for its tier", ok, entries)
	}
}
