package bench

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// noisy returns n samples around mid, each off by up to ±spread of it,
// drawn from seed.
func noisy(seed int64, n int, mid, spread float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mid * (1 + spread*(2*rng.Float64()-1))
	}
	return xs
}

// scaled returns xs with every sample multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestVerdictRule runs the verdict rule over synthetic pair samples.
func TestVerdictRule(t *testing.T) {
	base := noisy(1, pairs, 1e6, 0.01)
	wide := noisy(2, pairs, 1e6, 0.3)
	zeros := make([]float64, pairs)
	for _, c := range []struct {
		name         string
		base, change []float64
		r            rule
		want         string
	}{
		{"a clear regression", base, scaled(base, 1.2), hotRules["ns/op"], "REGRESSION"},
		{"noise alone", base, noisy(3, pairs, 1e6, 0.01), hotRules["ns/op"], "within"},
		{"every pair 3% worse", base, scaled(base, 1.03), hotRules["ns/op"], "within"},
		{"30% worse in only 8 of 10 pairs", base, append(scaled(base[:8], 1.3), scaled(base[8:], 0.99)...), hotRules["ns/op"], "within"},
		{"30% worse in 9 of 10 pairs", base, append(scaled(base[:9], 1.3), scaled(base[9:], 0.99)...), hotRules["ns/op"], "REGRESSION"},
		{"a gap inside the base's IQR", wide, scaled(wide, 1.08), hotRules["ns/op"], "unresolved"},
		{"every pair 20% faster", base, scaled(base, 0.8), hotRules["ns/op"], "gain"},
		{"a 0-alloc entry that allocates", zeros, []float64{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, hotRules["allocs/op"], "REGRESSION"},
		{"an entry that allocated allocates one more", noisy(0, pairs, 76, 0), noisy(0, pairs, 77, 0), hotRules["allocs/op"], "within"},
		{"a state-sized buffer per op", noisy(4, pairs, 760_000, 0.01), noisy(5, pairs, 4_650_000, 0.01), hotRules["B/op"], "REGRESSION"},
		{"a pool refill inside the slack", noisy(6, pairs, 9_000, 0.01), noisy(7, pairs, 60_000, 0.01), hotRules["B/op"], "within"},
		{"an entry's own metric growing", noisy(10, pairs, 1.5e7, 0), noisy(10, pairs, 1.6e7, 0), hotRules[""], "REGRESSION"},
	} {
		if _, got := judge(c.base, c.change, c.r); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestJudgeAllDoctoredBase: against a base whose samples are impossibly fast
// (1 ns/op), real measurements of the change must fail the gate.
func TestJudgeAllDoctoredBase(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	base := map[string][]float64{"matmul ns/op": noisy(0, pairs, 1, 0)}
	change := map[string][]float64{}
	for i := 0; i < pairs; i++ {
		snap, err := RunOnly([]string{"matmul"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		change["matmul ns/op"] = append(change["matmul ns/op"], float64(snap.Results["matmul"].NsPerOp))
	}
	var out bytes.Buffer
	if n := judgeAll(&out, base, change); n != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("%d regressions against a doctored base:\n%s", n, out.String())
	}
}

// TestCompareEntryString checks the printed line of each judged metric:
// one line per metric in name order with both sides' quartiles, the change's
// wins and the verdict, and the count of regressions returned.
func TestCompareEntryString(t *testing.T) {
	base := map[string][]float64{
		"matmul ns/op":     {1, 2, 3, 4, 5},
		"dense_step ns/op": {10, 10, 10, 10, 10},
		"conv ns/op":       {100, 100, 100, 100, 100},
	}
	change := map[string][]float64{
		"matmul ns/op":     {2, 3, 4, 5, 6},
		"dense_step ns/op": {9, 9, 9, 9, 9},
		"conv ns/op":       {120, 120, 120, 120, 120},
	}
	var out bytes.Buffer
	if n := judgeAll(&out, base, change); n != 1 {
		t.Fatalf("%d regressions, want 1:\n%s", n, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	for i, want := range []string{
		"conv ns/op .* 100 .* 120 .* 0/5 +REGRESSION$",
		"dense_step ns/op .* 10 .* 9 .* 5/5 +gain$",
		"matmul ns/op +2 +3 +4 +3 +4 +5 +0/5 +unresolved$",
	} {
		if i >= len(lines) || !regexp.MustCompile(want).MatchString(lines[i]) {
			t.Fatalf("line %d does not match %q:\n%s", i, want, out.String())
		}
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), out.String())
	}
}

// TestCompareResultsSkipReasons: a metric that only one side measured (or
// that the sides measured in different numbers of runs) is listed with the
// reason it was not judged and never counts as a regression, while the
// metrics both sides measured are still judged.
func TestCompareResultsSkipReasons(t *testing.T) {
	base := map[string][]float64{
		"other ns/op": {5, 5, 5, 5, 5},
		"gone ns/op":  {1, 1, 1, 1, 1},
		"short ns/op": {1, 1, 1, 1, 1},
	}
	change := map[string][]float64{
		"other ns/op": {5, 5, 5, 5, 5},
		"new ns/op":   {9, 9, 9, 9, 9},
		"short ns/op": {9, 9, 9},
	}
	var out bytes.Buffer
	if n := judgeAll(&out, base, change); n != 0 {
		t.Fatalf("%d regressions, want none:\n%s", n, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	for i, want := range []string{
		"gone ns/op +measured in 5 base and 0 change runs: not judged$",
		"new ns/op +measured in 0 base and 5 change runs: not judged$",
		"other ns/op .* 0/5 +within$",
		"short ns/op +measured in 5 base and 3 change runs: not judged$",
	} {
		if i >= len(lines) || !regexp.MustCompile(want).MatchString(lines[i]) {
			t.Fatalf("line %d does not match %q:\n%s", i, want, out.String())
		}
	}
}

// TestRunPair runs the gate end to end against HEAD on one fast entry: every
// pair runs, the table holds both sides' quartiles, the change's wins and a
// verdict for each metric, the gate passes, and neither the worktree nor the
// build directory outlives the run.
func TestRunPair(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dinar-bench twice and runs twenty benchmark processes")
	}
	ctx := context.Background()
	root, err := git(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		t.Skipf("not in a git checkout: %v", err)
	}
	var out bytes.Buffer
	if err := RunPair(ctx, "HEAD", []string{"wire_encode"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		`(?m)^pair 10/10 ran in `,
		`(?m)^wire_encode B/op +(\S+ +){6}\d+/10 +within$`,
		`(?m)^wire_encode allocs/op +(\S+ +){6}\d+/10 +within$`,
		`(?m)^wire_encode ns/op +(\S+ +){6}\d+/10 +(within|unresolved|gain)$`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("no line matches %q:\n%s", want, out.String())
		}
	}
	dir := filepath.Join(root, ".bench_build", "pair")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("%s outlived the run (stat: %v)", dir, err)
	}
	if list, err := git(ctx, root, "worktree", "list", "--porcelain"); err != nil || strings.Contains(list, dir) {
		t.Errorf("the base worktree outlived the run (%v):\n%s", err, list)
	}
}
