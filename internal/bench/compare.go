package bench

import (
	"fmt"
	"runtime"
	"sort"
)

// DefaultCompareThreshold is the ns/op regression budget of the perf gate:
// a tracked benchmark may run at most 15% slower than its recorded snapshot
// before `dinar-bench -compare` fails.
const DefaultCompareThreshold = 0.15

// bytesSlack is what an entry's B/op may grow by, on top of the threshold,
// before the gate calls it a regression: pooled buffers refilled after a GC
// cycle move the small entries by tens of kilobytes, while the growth the
// gate is for — a state-sized buffer made per op again — is megabytes.
const bytesSlack = 64 << 10

// compareRetries is how many fresh measurements a failing entry gets before
// the regression is believed. Single benchmark runs on a loaded host
// routinely overshoot by far more than the threshold; the minimum of several
// runs is the stable statistic (the true cost of the code can only be
// approached from above by scheduling noise, never undercut).
const compareRetries = 2

// CompareEntry is one benchmark's verdict against the recorded snapshot.
type CompareEntry struct {
	Name       string
	RecordedNs int64
	MeasuredNs int64
	// Ratio is MeasuredNs / RecordedNs (1.0 = unchanged).
	Ratio float64
	// AllocsGrew flags an entry recorded at 0 allocs/op that now allocates —
	// a regression regardless of timing.
	AllocsGrew bool
	// BytesGrew flags an entry whose B/op exceeds the record by more than
	// the threshold plus bytesSlack.
	BytesGrew bool
	Regressed bool
	// Skipped carries the reason an entry was not comparable (unknown to the
	// current suite, or recorded at a different GOMAXPROCS).
	Skipped string
}

func (e CompareEntry) String() string {
	if e.Skipped != "" {
		return fmt.Sprintf("%-28s skipped: %s", e.Name, e.Skipped)
	}
	verdict := "ok"
	if e.Regressed {
		verdict = "REGRESSED"
		switch {
		case e.AllocsGrew:
			verdict = "REGRESSED (allocates)"
		case e.BytesGrew:
			verdict = "REGRESSED (B/op)"
		}
	}
	return fmt.Sprintf("%-28s %12d -> %12d ns/op  (%+.1f%%)  %s",
		e.Name, e.RecordedNs, e.MeasuredNs, (e.Ratio-1)*100, verdict)
}

// compareResults applies the regression rule to a recorded and a measured
// result set: an entry regresses when its measured ns/op exceeds the record
// by more than threshold, when its B/op does by more than threshold plus
// bytesSlack, or when it allocates where the record says zero.
// Entries the measured set lacks are skipped (with the given reason map),
// never silently dropped. Results are sorted by name for stable output.
func compareResults(rec, cur map[string]Result, threshold float64, skip map[string]string) []CompareEntry {
	names := make([]string, 0, len(rec))
	for name := range rec {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]CompareEntry, 0, len(names))
	for _, name := range names {
		r := rec[name]
		e := CompareEntry{Name: name, RecordedNs: r.NsPerOp}
		if reason, ok := skip[name]; ok {
			e.Skipped = reason
			entries = append(entries, e)
			continue
		}
		c, ok := cur[name]
		if !ok {
			e.Skipped = "not measured"
			entries = append(entries, e)
			continue
		}
		e.MeasuredNs = c.NsPerOp
		if r.NsPerOp > 0 {
			e.Ratio = float64(c.NsPerOp) / float64(r.NsPerOp)
		}
		e.AllocsGrew = r.AllocsPerOp == 0 && c.AllocsPerOp > 0
		e.BytesGrew = float64(c.BytesPerOp) > float64(r.BytesPerOp)*(1+threshold)+bytesSlack
		e.Regressed = e.AllocsGrew || e.BytesGrew || (r.NsPerOp > 0 && e.Ratio > 1+threshold)
		entries = append(entries, e)
	}
	return entries
}

// regressedNames lists the entries currently marked regressed.
func regressedNames(entries []CompareEntry) []string {
	var names []string
	for _, e := range entries {
		if e.Regressed {
			names = append(names, e.Name)
		}
	}
	return names
}

// mergeMin folds a remeasurement into cur, keeping the faster ns/op per entry
// (and the lower allocation count, so a one-off alloc blip doesn't stick).
func mergeMin(cur, retry map[string]Result) {
	for name, r := range retry {
		c, ok := cur[name]
		if !ok || r.NsPerOp < c.NsPerOp {
			c.NsPerOp = r.NsPerOp
			c.Iterations = r.Iterations
		}
		if !ok || r.AllocsPerOp < c.AllocsPerOp {
			c.AllocsPerOp = r.AllocsPerOp
			c.BytesPerOp = r.BytesPerOp
		}
		cur[name] = c
	}
}

// RunCompare is the perf regression gate behind `dinar-bench -compare` /
// `make bench-check`: it loads the recorded current snapshot at path, reruns
// every tracked benchmark it records, and reports entries slower than
// threshold (or newly allocating). Entries that fail the first measurement
// are rerun up to compareRetries more times keeping the minimum, so the gate
// trips on real regressions rather than scheduler noise. The returned ok is
// false when any entry stays regressed after retries.
func RunCompare(path string, threshold float64, logf func(format string, args ...any)) (entries []CompareEntry, ok bool, err error) {
	f, err := ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(f.Current.Results) == 0 {
		return nil, false, fmt.Errorf("bench: %s has no recorded current snapshot (run make bench-json first)", path)
	}

	known := make(map[string]bool, len(suite))
	for _, e := range suite {
		known[e.name] = true
	}
	procs := runtime.GOMAXPROCS(0)
	skip := make(map[string]string)
	var names []string
	for name, r := range f.Current.Results {
		switch {
		case !known[name]:
			skip[name] = "recorded benchmark unknown to this suite"
		case r.GOMAXPROCS != 0 && r.GOMAXPROCS != procs:
			skip[name] = fmt.Sprintf("recorded at GOMAXPROCS=%d, running at %d", r.GOMAXPROCS, procs)
		default:
			names = append(names, name)
		}
	}
	sort.Strings(names)

	snap, err := RunOnly(names, logf)
	if err != nil {
		return nil, false, err
	}
	entries = compareResults(f.Current.Results, snap.Results, threshold, skip)
	for retry := 0; retry < compareRetries; retry++ {
		failing := regressedNames(entries)
		if len(failing) == 0 {
			break
		}
		if logf != nil {
			logf("retrying %d regressed entries (attempt %d/%d)...\n", len(failing), retry+1, compareRetries)
		}
		again, err := RunOnly(failing, logf)
		if err != nil {
			return nil, false, err
		}
		mergeMin(snap.Results, again.Results)
		entries = compareResults(f.Current.Results, snap.Results, threshold, skip)
	}
	return entries, len(regressedNames(entries)) == 0, nil
}
