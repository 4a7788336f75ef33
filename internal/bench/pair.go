package bench

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// pairs is how many base/change pairs RunPair runs: ten is the fewest in
// which the gain rule's nine-tenths of wins is a whole number of pairs.
const pairs = 10

// pairSeed draws which pairs of each entry run the change first.
const pairSeed = 1

// nsBound is the median gap past which a hot-path entry's ns/op, B/op or
// allocs/op regresses, as a fraction of the base's median. The two runs of a
// pair are back to back on one host, so its drift cancels and the gate can
// sit well below an absolute record's 15 %: a planted 10 % slowdown clears
// it, and same-commit pairs stay inside it.
const nsBound = 0.05

// bytesSlack is what an entry's B/op may grow by on top of nsBound: pooled
// buffers refilled after a GC cycle move the small entries by tens of
// kilobytes, while the growth the gate is for — a state-sized buffer made per
// op again — is megabytes.
const bytesSlack = 64 << 10

// rule is how one metric is judged, lower being better: a regression's
// median gap must exceed bound·median(base) + slack. A zero rule's metric
// that is 0 in every base run regresses as soon as the change's median is
// not.
type rule struct {
	bound, slack float64
	zero         bool
}

// hotRules judge the suite's metrics; an entry's own metric (bytes/round,
// bytes/frame) is judged by the default rule.
var hotRules = map[string]rule{
	"ns/op":     {bound: nsBound},
	"B/op":      {bound: nsBound, slack: bytesSlack},
	"allocs/op": {bound: nsBound, zero: true},
	"":          {bound: nsBound},
}

// judge applies the verdict rule to one metric's samples, base[i] and
// change[i] having run in the same pair. It returns how many pairs the change
// won (ties count for neither side) and one of:
//   - REGRESSION: worse in at least 0.9·N pairs, with a median gap above the
//     base's interquartile range and past the rule's bound, or a zero rule's
//     metric the base never had;
//   - gain: better in at least 0.9·N pairs, with a median gap above the base's
//     interquartile range;
//   - unresolved: the base's interquartile range is wider than the bound, so
//     the runs cannot tell a regression from noise;
//   - within.
//
// A regression needs as many pairs as a gain because one run judges some 90
// metrics: at 0.8·N, three of eight runs on a 2-CPU host flagged an entry
// the change does not run (batchnorm_step, residual_step,
// wire_lossless_decode_update); at 0.9·N none of the eight did.
func judge(base, change []float64, r rule) (int, string) {
	wins, losses := 0, 0
	for i := range base {
		if change[i] < base[i] {
			wins++
		} else if change[i] > base[i] {
			losses++
		}
	}
	b1, bm, b3 := quartiles(base)
	_, cm, _ := quartiles(change)
	gap, iqr, limit, n := cm-bm, b3-b1, r.bound*bm+r.slack, len(base)
	switch {
	case r.zero && slices.Max(base) == 0 && cm > 0, 10*losses >= 9*n && gap > iqr && gap > limit:
		return wins, "REGRESSION"
	case 10*wins >= 9*n && -gap > iqr:
		return wins, "gain"
	case iqr > limit:
		return wins, "unresolved"
	}
	return wins, "within"
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := func(p float64) float64 {
		f := p * float64(len(s)-1)
		i := int(f)
		return s[i] + (f-float64(i))*(s[min(i+1, len(s)-1)]-s[i])
	}
	return q(0.25), q(0.5), q(0.75)
}

// judgeAll judges every "entry metric" both sides measured in every pair by
// its metric's rule, prints one line each to w — both sides' quartiles, the
// change's wins and the verdict — and returns how many regressed. A metric
// only one side measured is listed, not judged.
func judgeAll(w io.Writer, base, change map[string][]float64) int {
	union := maps.Clone(base)
	maps.Copy(union, change)
	var keys []string
	for k := range union {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	q := func(xs []float64) string {
		a, b, c := quartiles(xs)
		return fmt.Sprintf("%10.4g %10.4g %10.4g", a, b, c)
	}
	fmt.Fprintf(w, "%-48s %32s   %32s   %5s  verdict\n", "entry metric", "base q1 median q3", "change q1 median q3", "wins")
	regressed := 0
	for _, k := range keys {
		b, c := base[k], change[k]
		if len(b) != len(c) {
			fmt.Fprintf(w, "%-48s measured in %d base and %d change runs: not judged\n", k, len(b), len(c))
			continue
		}
		r, ok := hotRules[k[strings.LastIndexByte(k, ' ')+1:]]
		if !ok {
			r = hotRules[""]
		}
		wins, verdict := judge(b, c, r)
		if verdict == "REGRESSION" {
			regressed++
		}
		fmt.Fprintf(w, "%-48s %s   %s   %2d/%-2d  %s\n", k, q(b), q(c), wins, len(b), verdict)
	}
	return regressed
}

// side is one of the two trees RunPair alternates: the tree, the
// dinar-bench binary built from it for the current pair, and the samples it
// measured, keyed "entry metric".
type side struct {
	tree, bin string
	samples   map[string][]float64
}

// build links s's binary with its functions in the order drawn from seed.
func (s *side) build(ctx context.Context, seed int) error {
	// -trimpath: the same source builds the same binary in either tree.
	cmd := exec.CommandContext(ctx, "go", "build", "-trimpath", "-buildvcs=false", fmt.Sprintf("-ldflags=-randlayout=%d", seed), "-o", s.bin, "./cmd/dinar-bench")
	cmd.Dir = s.tree
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: build %s: %v\n%s", s.tree, err, out)
	}
	return nil
}

// measure runs one suite entry once on s's binary at GOMAXPROCS=1 and
// appends its metrics to s.samples; an entry s's suite lacks adds none.
func (s *side) measure(ctx context.Context, entry string) error {
	os.Remove(s.bin + ".json") // -json merges into an existing file
	cmd := exec.CommandContext(ctx, s.bin, "-only", entry, "-json", s.bin+".json")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if out, err := cmd.CombinedOutput(); strings.Contains(string(out), "unknown benchmark") {
		return nil
	} else if err != nil {
		return fmt.Errorf("bench: %s run of %s: %v\n%s", s.bin, entry, err, out)
	}
	f, err := ReadFile(s.bin + ".json")
	if err != nil {
		return err
	}
	r := f.Current.Results[entry]
	add := func(metric string, v float64) { s.samples[entry+" "+metric] = append(s.samples[entry+" "+metric], v) }
	add("ns/op", float64(r.NsPerOp))
	add("B/op", float64(r.BytesPerOp))
	add("allocs/op", float64(r.AllocsPerOp))
	for k, v := range r.Extra {
		add(k, v)
	}
	return nil
}

// git runs git in dir and returns its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	out, err := exec.CommandContext(ctx, "git", append([]string{"-C", dir}, args...)...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

// RunPair is the perf gate behind `dinar-bench -pair <base>` / `make
// bench-pair`. It checks base out as a git worktree under the checkout's
// .bench_build/, builds cmd/dinar-bench there and in the working tree, and
// measures each suite entry (or only the named ones) on both for ten pairs.
// A pair runs each entry on both sides back to back, so the two runs share
// whatever load the host is under, and each pair links both sides with
// another function order. It prints judgeAll's table to w and fails
// when any metric regressed. The worktree is removed on return.
func RunPair(ctx context.Context, base string, only []string, w io.Writer) error {
	root, err := git(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := git(ctx, root, "rev-parse", "--verify", "--short=12", base+"^{commit}")
	if err != nil {
		return fmt.Errorf("bench: unknown base revision %q: %w", base, err)
	}
	entries := Names()
	if len(only) > 0 {
		entries = only
	}
	for _, e := range entries {
		if !slices.Contains(Names(), e) {
			return fmt.Errorf("bench: unknown benchmark %q (known: %s)", e, strings.Join(Names(), ", "))
		}
	}

	dir := filepath.Join(root, ".bench_build", "pair")
	sides := [2]*side{ // base, change
		{tree: filepath.Join(dir, "base"), bin: filepath.Join(dir, "base-bench"), samples: map[string][]float64{}},
		{tree: root, bin: filepath.Join(dir, "change-bench"), samples: map[string][]float64{}},
	}
	cleanup := func() {
		git(context.Background(), root, "worktree", "remove", "--force", sides[0].tree) //nolint:errcheck // absent unless a run was cut short
		os.RemoveAll(dir)
		git(context.Background(), root, "worktree", "prune") //nolint:errcheck // housekeeping
	}
	cleanup()
	defer cleanup()
	if _, err := git(ctx, root, "worktree", "add", "--detach", sides[0].tree, rev); err != nil {
		return err
	}

	fmt.Fprintf(w, "bench-pair: base %s against the working tree, %d pairs\n", rev, pairs)
	// Each pair runs every entry on both sides back to back. An entry runs
	// the change first in half its pairs, which half drawn from pairSeed:
	// with the order drawn pair by pair, fedavg_fcnn6 once read 11 % slower
	// than itself after the draw had run the change second in 7 of 10 pairs.
	// Running an entry's ten pairs one after another instead narrowed its
	// spread to a few seconds' worth of host noise, and same-commit runs
	// failed the gate in two of five.
	//
	// Each pair links both binaries anew with the function order drawn from
	// the pair's number (the linker's -randlayout), so where the linker puts
	// a hot loop changes from pair to pair instead of favouring one side in
	// all ten. With one build per side, conv1d_step read 5–12 % slower in
	// three runs whose change only made tensor.FixedFold slower, and was
	// flagged in one.
	rng, changeFirst := rand.New(rand.NewSource(pairSeed)), make([][]int, len(entries))
	for j := range entries {
		changeFirst[j] = rng.Perm(pairs)
	}
	for p := 0; p < pairs; p++ {
		start := time.Now()
		for _, s := range sides {
			if err := s.build(ctx, p+1); err != nil {
				return err
			}
		}
		for j, e := range entries {
			order := sides
			if changeFirst[j][p] < pairs/2 {
				order[0], order[1] = sides[1], sides[0]
			}
			for _, s := range order {
				if err := s.measure(ctx, e); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "pair %d/%d ran in %s\n", p+1, pairs, time.Since(start).Round(time.Millisecond))
	}
	if n := judgeAll(w, sides[0].samples, sides[1].samples); n > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed against %s", n, rev)
	}
	return nil
}
