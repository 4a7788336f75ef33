package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// resultsFile is what -all writes and -compare reads: for every workload,
// the records of its untraced runs (consecutive seeds) and of one traced
// run.
type resultsFile struct {
	BaseSeed  int64                       `json:"base_seed"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Untraced []*runRecord `json:"untraced"`
	Traced   *runRecord   `json:"traced"`
}

// runAll runs every workload in fresh child processes of this binary, so
// peak memory and GC state are per run, and writes the results file.
func runAll(baseSeed int64, seconds float64, outDir, resultsPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(w workload, seed int64, trace int) (*runRecord, error) {
		cmd := exec.Command(self, "-out", outDir, "-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", w.Name, seed, trace, err)
		}
		var rec runRecord
		blob, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", w.Name, trace)))
		if err == nil {
			err = json.Unmarshal(blob, &rec)
		}
		return &rec, err
	}
	out := resultsFile{BaseSeed: baseSeed, Seconds: seconds, Workloads: map[string]*workloadResults{}}
	for _, w := range workloads {
		wr := &workloadResults{}
		out.Workloads[w.Name] = wr
		for i := 0; i < runsPerWorkload; i++ {
			rec, err := child(w, baseSeed+int64(i), 0)
			if err != nil {
				return err
			}
			wr.Untraced = append(wr.Untraced, rec)
		}
		if wr.Traced, err = child(w, baseSeed, 1); err != nil {
			return err
		}
	}
	// ROADMAP item 4's in-process ≡ TCP oracle, observed for free: the
	// two workloads run the same task for the same number of rounds.
	tcp, inproc := out.Workloads["fcnn6_lossless_sync"].Untraced[0], out.Workloads["fcnn6_inproc"].Untraced[0]
	fmt.Printf("fcnn6_lossless_sync and fcnn6_inproc end on the same state (seed %d): %v (not gated)\n",
		baseSeed, tcp.FinalStateSHA256 == inproc.FinalStateSHA256)
	return writeJSON(resultsPath, out)
}

// quartiles returns the three quartiles of v exactly as Python's
// statistics.quantiles(v, n=4) does (the default "exclusive" method).
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	if path == "" {
		for _, cand := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
			if _, err := os.Stat(cand); err == nil {
				path = cand
				break
			}
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json (use -spec): %w", err)
	}
	var spec benchmarkSpec
	return &spec, json.Unmarshal(blob, &spec)
}

func loadResults(path string) (*resultsFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	return &rf, json.Unmarshal(blob, &rf)
}

// compareResults prints, per workload and end-to-end metric, both sides'
// quartiles, the relative difference of the medians, the bound and a
// verdict. It reports whether every pairing is within its bound and every
// final-state hash agrees.
func compareResults(w io.Writer, pathA, pathB, specPath string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || len(ra.Untraced) == 0 || len(ra.Untraced) != len(rb.Untraced) {
			return false, fmt.Errorf("%s: the two files do not hold the same runs", wl.Name)
		}
		// Refuse to compare differently-shaped runs.
		for i := range ra.Untraced {
			if ha, hb := ra.Untraced[i].ConfigHash, rb.Untraced[i].ConfigHash; ha != hb {
				return false, fmt.Errorf("%s run %d: configuration hash %s vs %s — not comparable", wl.Name, i, ha, hb)
			}
		}
		hashes := "identical"
		for i := range ra.Untraced {
			if ra.Untraced[i].FinalStateSHA256 != rb.Untraced[i].FinalStateSHA256 {
				hashes = fmt.Sprintf("DIFFER (untraced seed %d)", ra.Untraced[i].Seed)
			}
		}
		if ra.Traced != nil && rb.Traced != nil && ra.Traced.FinalStateSHA256 != rb.Traced.FinalStateSHA256 {
			hashes = "DIFFER (traced)"
		}
		if hashes != "identical" {
			ok = false
		}
		fmt.Fprintf(w, "%s  (%d runs a side, final-state hashes %s)\n", wl.Name, len(ra.Untraced), hashes)
		fmt.Fprintf(w, "  %-22s %-5s %36s %36s %8s %6s  %s\n", "metric", "unit", "a: q1 / median / q3", "b: q1 / median / q3", "b vs a", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, err := metricValues(ra.Untraced, m.Name)
			if err != nil {
				return false, fmt.Errorf("%s in %s: %w", wl.Name, pathA, err)
			}
			vb, err := metricValues(rb.Untraced, m.Name)
			if err != nil {
				return false, fmt.Errorf("%s in %s: %w", wl.Name, pathB, err)
			}
			qa, qb := quartiles(va), quartiles(vb)
			// worse is the share of a's median by which b's is worse, and
			// spread the wider of the two sides' interquartile ranges as a
			// share of its median. A metric that reads 0 on both sides
			// throughout has neither.
			var worse, spread float64
			if qa != [3]float64{} || qb != [3]float64{} {
				worse = (qb[1] - qa[1]) / qa[1]
				if m.Better == "higher" {
					worse = -worse
				}
				spread = math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			}
			verdict := "within"
			switch {
			case math.IsNaN(worse) || math.IsInf(worse, 0) || math.IsNaN(spread) || math.IsInf(spread, 0):
				// A median of 0 on one side only: no relative figure exists.
				verdict = "unresolved (median 0)"
				ok = false
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
				ok = false
			case worse > m.Bound:
				verdict = "worse"
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %-5s %36s %36s %+7.2f%% %5.1f%%  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.5g / %.5g / %.5g", qa[0], qa[1], qa[2]),
				fmt.Sprintf("%.5g / %.5g / %.5g", qb[0], qb[1], qb[2]),
				100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// metricValues returns the metric's value in every record; a record that
// lacks it is an error, not a 0.
func metricValues(recs []*runRecord, name string) ([]float64, error) {
	v := make([]float64, len(recs))
	for i, r := range recs {
		m, ok := r.Result.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("run %d (seed %d) has no metric %s", i, r.Seed, name)
		}
		v[i] = m.Value
	}
	return v, nil
}
