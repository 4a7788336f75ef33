package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// Values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{2.5, 1.5, 9, 4}, [3]float64{1.75, 3.25, 7.75}},
	} {
		got := quartiles(tc.v)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
				break
			}
		}
	}
}

// resultsWith builds a results file whose every end-to-end metric of every
// workload takes the given values over its runs; rounds_per_s (the one
// "higher is better" metric) and the final-state hash can be overridden.
func resultsWith(t *testing.T, values, roundsPerS []float64, hash string) string {
	t.Helper()
	rf := resultsFile{BaseSeed: 7, Seconds: 20, Workloads: map[string]*workloadResults{}}
	for _, w := range workloads {
		wr := &workloadResults{}
		for i, v := range values {
			rec := &runRecord{
				Workload: w, Seed: 7 + int64(i), ConfigHash: w.configHash(7+int64(i), w.Segments),
				FinalStateSHA256: hash, Result: result{Correct: true, Metrics: map[string]metricValue{}},
			}
			for _, d := range endToEnd {
				rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			rec.Result.Metrics["rounds_per_s"] = metricValue{Value: roundsPerS[i], Unit: "1/s"}
			wr.Untraced = append(wr.Untraced, rec)
		}
		rf.Workloads[w.Name] = wr
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeJSON(path, rf); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 100.5, 101, 99.5, 100, 100.2, 99.8, 100.1, 100.3, 99.9}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	base := resultsWith(t, steady, steady, "aa")

	for _, tc := range []struct {
		name   string
		other  string
		wantOK bool
		want   string // must appear in the report
		never  string // must not appear
	}{
		{"same", resultsWith(t, steady, steady, "aa"), true, "within", "worse"},
		// Every lower-is-better metric 40% up, throughput 40% up (better).
		{"slower", resultsWith(t, scale(steady, 1.4), scale(steady, 1.4), "aa"), false, "worse", "unresolved"},
		{"throughput down", resultsWith(t, steady, scale(steady, 0.6), "aa"), false, "worse", "unresolved"},
		{"noisy", resultsWith(t, noisy, noisy, "aa"), false, "unresolved", ""},
		{"other state", resultsWith(t, steady, steady, "bb"), false, "DIFFER", ""},
		// A metric that dropped to 0 has no relative difference: it must not
		// read as within.
		{"zero on one side", resultsWith(t, make([]float64, len(steady)), steady, "aa"), false, "unresolved (median 0)", "worse"},
	} {
		var report bytes.Buffer
		ok, err := compareResults(&report, base, tc.other, "../BENCHMARK.json")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.wantOK || !strings.Contains(report.String(), tc.want) || tc.never != "" && strings.Contains(report.String(), tc.never) {
			t.Errorf("%s: ok=%v, report:\n%s", tc.name, ok, report.String())
		}
	}
	// 0 on both sides throughout is agreement.
	zeros := make([]float64, len(steady))
	var report bytes.Buffer
	if ok, err := compareResults(&report, resultsWith(t, zeros, zeros, "aa"), resultsWith(t, zeros, zeros, "aa"), "../BENCHMARK.json"); err != nil || !ok {
		t.Errorf("all-zero results compared ok=%v, err=%v:\n%s", ok, err, report.String())
	}

	// A differently-shaped run (another number of segments, so another
	// configuration hash) is refused, not compared.
	rf, err := loadResults(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rf.Workloads {
		wr.Untraced[0].ConfigHash = wr.Untraced[0].Workload.configHash(7, wr.Untraced[0].Workload.Segments+1)
	}
	reshaped := filepath.Join(t.TempDir(), "reshaped.json")
	if err := writeJSON(reshaped, rf); err != nil {
		t.Fatal(err)
	}
	if _, err := compareResults(&bytes.Buffer{}, base, reshaped, "../BENCHMARK.json"); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("differently-shaped runs were compared: %v", err)
	}

	// A run that lacks a metric is an error, never a silent 0.
	if rf, err = loadResults(base); err != nil {
		t.Fatal(err)
	}
	for _, wr := range rf.Workloads {
		delete(wr.Untraced[3].Result.Metrics, "peak_rss_mb")
	}
	lacking := filepath.Join(t.TempDir(), "lacking.json")
	if err := writeJSON(lacking, rf); err != nil {
		t.Fatal(err)
	}
	if _, err := compareResults(&bytes.Buffer{}, base, lacking, "../BENCHMARK.json"); err == nil || !strings.Contains(err.Error(), "no metric peak_rss_mb") {
		t.Errorf("a results file lacking a metric was compared: %v", err)
	}
}
