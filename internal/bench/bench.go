// Package bench measures the training hot path — per-layer forward/backward
// steps, the matmul kernels under them, and one end-to-end quick experiment —
// and records the results in a JSON file (BENCH_hotpath.json at the repo
// root) alongside a preserved baseline snapshot, so performance regressions
// show up as a diff instead of an anecdote.
//
// The suite runs through testing.Benchmark, so each entry self-calibrates its
// iteration count and reports ns/op, B/op, and allocs/op exactly like
// `go test -bench`.
package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/flnet"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// SchemaVersion is the BENCH_hotpath.json layout version: the CPU count is
// stamped on every result (so a GOMAXPROCS sweep and the single-core baseline
// coexist) and there is an optional "scaling" section. ReadFile refuses a
// file of any other version.
const SchemaVersion = 2

// MinIterations is the fewest iterations a recorded result may rest on: a
// single run of an entry slower than testing.Benchmark's one-second budget is
// an anecdote (fig4_per_layer_protection was gated from one for twelve PRs).
// RunOnly re-measures such an entry at exactly this count, and the writers
// refuse a result with fewer.
const MinIterations = 3

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	Iterations  int   `json:"iterations"`
	// GOMAXPROCS is the CPU count the measurement ran at.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Extra carries custom metrics published via b.ReportMetric (e.g. the
	// wire bench's "bytes/round"). Omitted for benchmarks without any.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is one full run of the hot-path suite.
type Snapshot struct {
	Commit string `json:"commit,omitempty"`
	Note   string `json:"note,omitempty"`
	// GOMAXPROCS is the setting the whole snapshot ran at; individual
	// results carry their own copy.
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    map[string]Result `json:"results"`
}

// ScalingResult is one benchmark measured at one GOMAXPROCS setting during
// the multi-core scaling sweep.
type ScalingResult struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
	// Speedup is ns/op at the sweep's smallest CPU count divided by ns/op
	// at this one; Efficiency is Speedup divided by GOMAXPROCS (1.0 =
	// perfect linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Degenerate marks a measurement taken with GOMAXPROCS above the
	// host's CPU count (e.g. the whole default sweep on a 1-CPU host):
	// it measures scheduling overhead, not parallel speedup, and summary
	// tables skip it.
	Degenerate bool `json:"degenerate,omitempty"`
}

// ScalingReport records one GOMAXPROCS sweep of the hot-path suite.
type ScalingReport struct {
	// HostCPUs is runtime.NumCPU() on the measuring machine — the hard
	// ceiling on real parallel speedup regardless of the GOMAXPROCS
	// setting.
	HostCPUs  int    `json:"host_cpus"`
	CPUCounts []int  `json:"cpu_counts"`
	Note      string `json:"note,omitempty"`
	// Results maps benchmark name to its per-CPU-count measurements,
	// ordered as CPUCounts.
	Results map[string][]ScalingResult `json:"results"`
}

// MarkdownTable renders the sweep as a README-ready markdown table, one row
// per benchmark × CPU count. Degenerate rows (GOMAXPROCS above the host's
// CPU count) are skipped: their "speedup" is scheduling overhead, and on a
// 1-CPU host the entire default sweep beyond GOMAXPROCS=1 is degenerate. A
// trailing note reports how many rows were dropped so the omission is
// visible rather than silent.
func (r *ScalingReport) MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| benchmark | GOMAXPROCS | ns/op | speedup | efficiency |\n")
	b.WriteString("| --- | ---: | ---: | ---: | ---: |\n")
	names := make([]string, 0, len(r.Results))
	for name := range r.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	skipped := 0
	for _, name := range names {
		for _, res := range r.Results[name] {
			if res.Degenerate {
				skipped++
				continue
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %.2fx | %.0f%% |\n",
				name, res.GOMAXPROCS, res.NsPerOp, res.Speedup, res.Efficiency*100)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "\n%d oversubscribed measurement(s) (GOMAXPROCS > %d host CPUs) omitted — they measure scheduling overhead, not speedup.\n",
			skipped, r.HostCPUs)
	}
	return b.String()
}

// File is the on-disk layout of BENCH_hotpath.json: the current snapshot, a
// baseline that WriteFile preserves across regenerations, and the optional
// scaling sweep. The baseline is updated only deliberately (by editing the
// file), never by rerunning the suite.
type File struct {
	SchemaVersion int            `json:"schema_version,omitempty"`
	Baseline      *Snapshot      `json:"baseline,omitempty"`
	Current       Snapshot       `json:"current"`
	Scaling       *ScalingReport `json:"scaling,omitempty"`
}

// suiteEntry names one benchmark of the hot-path suite.
type suiteEntry struct {
	name string
	fn   func(b *testing.B)
}

// layerStep benchmarks a steady-state Forward+Backward step: the warm-up
// outside the timer sizes the layer's workspaces so the measurement covers
// only the hot path.
func layerStep(b *testing.B, layer nn.Layer, x *tensor.Tensor) {
	out := layer.Forward(x, true)
	g := tensor.Randn(rand.New(rand.NewSource(92)), 0, 1, out.Shape()...)
	layer.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		layer.Backward(g)
	}
}

// matMulTransB benchmarks out = a × bᵀ for a m×k and b n×k — a Dense
// forward's GEMM at batch m.
func matMulTransB(m, k, n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(93))
		a := tensor.Randn(rng, 0, 1, m, k)
		bt := tensor.Randn(rng, 0, 1, n, k)
		out := tensor.New(m, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulTransBInto(out, a, bt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// trainStep benchmarks one steady-state client training step at batch 64 —
// forward, loss, the backward pass fl.Client runs, Adagrad update — on a
// paper model at the round benchmark's input shape. The layers, the loss
// (one result evaluated into, as fl.Client does) and the optimizer allocate
// nothing; the allocs/op reported on VGG11 are Flatten's reshaped views.
func trainStep(b *testing.B, m *nn.Model, classes int, inputShape ...int) {
	x := tensor.Randn(rand.New(rand.NewSource(94)), 0, 1, append([]int{64}, inputShape...)...)
	y := make([]int, x.Dim(0))
	for i := range y {
		y[i] = i % classes
	}
	var loss nn.SoftmaxCrossEntropy
	var res nn.LossResult
	opt := optim.NewAdagrad(0.01)
	params, grads := m.Params(), m.Grads()
	step := func() {
		if err := loss.EvalInto(&res, m.Forward(x, true), y); err != nil {
			b.Fatal(err)
		}
		m.BackwardParams(res.Grad)
		opt.Step(params, grads)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// suite lists the tracked benchmarks. Shapes mirror the scaled models' hot
// layers; fig4_per_layer_protection is the end-to-end acceptance metric (one
// quick-scale regeneration of the paper's Figure 4).
var suite = []suiteEntry{
	{"dense_step", func(b *testing.B) {
		rng := rand.New(rand.NewSource(91))
		layerStep(b, nn.NewDense(256, 128, rng), tensor.Randn(rng, 0, 1, 32, 256))
	}},
	{"conv2d_step", func(b *testing.B) {
		rng := rand.New(rand.NewSource(91))
		layerStep(b, nn.NewConv2D(8, 16, 3, 1, 1, rng), tensor.Randn(rng, 0, 1, 8, 8, 16, 16))
	}},
	{"conv1d_step", func(b *testing.B) {
		rng := rand.New(rand.NewSource(91))
		layerStep(b, nn.NewConv1D(4, 8, 9, 4, 4, rng), tensor.Randn(rng, 0, 1, 8, 4, 256))
	}},
	{"batchnorm_step", func(b *testing.B) {
		rng := rand.New(rand.NewSource(91))
		layerStep(b, nn.NewBatchNorm(16), tensor.Randn(rng, 0, 1, 8, 16, 16, 16))
	}},
	{"residual_step", func(b *testing.B) {
		rng := rand.New(rand.NewSource(91))
		layerStep(b, nn.NewResidual(8, 16, 2, rng), tensor.Randn(rng, 0, 1, 4, 8, 16, 16))
	}},
	{"matmul", func(b *testing.B) {
		rng := rand.New(rand.NewSource(93))
		a := tensor.Randn(rng, 0, 1, 256, 128)
		bb := tensor.Randn(rng, 0, 1, 128, 64)
		out := tensor.New(256, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulInto(out, a, bb); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"matmul_transb", matMulTransB(256, 128, 64)},
	{"matmul_transa", func(b *testing.B) {
		rng := rand.New(rand.NewSource(93))
		at := tensor.Randn(rng, 0, 1, 128, 256)
		bb := tensor.Randn(rng, 0, 1, 128, 64)
		out := tensor.New(256, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulTransAInto(out, at, bb); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// The three entries below run the shapes the round benchmark's workloads
	// run: FCNN6's first forward GEMM, and one client step of each model.
	{"matmul_transb_fcnn6", matMulTransB(64, 600, 512)},
	{"fcnn6_train_step", func(b *testing.B) {
		trainStep(b, model.FCNN6(600, 100, rand.New(rand.NewSource(91))), 100, 600)
	}},
	{"vgg11_train_step", func(b *testing.B) {
		m, err := model.VGG11(3, 16, 16, 32, rand.New(rand.NewSource(91)))
		if err != nil {
			b.Fatal(err)
		}
		trainStep(b, m, 32, 3, 16, 16)
	}},
	{"round_throughput", benchRoundThroughput},
	{"fcnn6_client_round", benchClientRound},
	{"checkpoint_save_fcnn6", benchCheckpointSave},
	{"wire_encode", benchWireEncode},
	{"wire_decode", benchWireDecode},
	{"wire_lossless_encode_global", benchWireLosslessEncode(flnet.KindGlobal)},
	{"wire_lossless_decode_global", benchWireLosslessDecode(flnet.KindGlobal)},
	{"wire_lossless_encode_update", benchWireLosslessEncode(flnet.KindUpdate)},
	{"wire_lossless_decode_update", benchWireLosslessDecode(flnet.KindUpdate)},
	{"bytes_per_round", benchBytesPerRound},
	{"quant_encode_topk", benchQuantEncode(0.1)},
	{"quant_encode_dense", benchQuantEncode(0)},
	{"exact_fold", benchExactFold},
	{"exact_finalize", benchExactFinalize},
	{"fig4_per_layer_protection", func(b *testing.B) {
		o := experiment.QuickOptions()
		o.UseShadowAttack = false
		o.Records = 400
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiment.Fig4(ctx, o, "purchase100"); err != nil {
				b.Fatal(err)
			}
		}
	}},
}

// Names lists the suite's benchmark names in run order.
func Names() []string {
	names := make([]string, len(suite))
	for i, e := range suite {
		names[i] = e.name
	}
	return names
}

// RunOnly executes the named subset of the suite (nil or empty means the
// whole suite) and returns the snapshot; an unknown name is an error before
// anything runs, so a typo doesn't cost a full measurement pass.
func RunOnly(only []string, logf func(format string, args ...any)) (Snapshot, error) {
	entries := suite
	if len(only) > 0 {
		byName := make(map[string]suiteEntry, len(suite))
		for _, e := range suite {
			byName[e.name] = e
		}
		entries = make([]suiteEntry, 0, len(only))
		for _, name := range only {
			e, ok := byName[name]
			if !ok {
				return Snapshot{}, fmt.Errorf("bench: unknown benchmark %q (known: %s)", name, strings.Join(Names(), ", "))
			}
			entries = append(entries, e)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	results := make(map[string]Result, len(entries))
	for _, e := range entries {
		r := testing.Benchmark(e.fn)
		if r.N < MinIterations {
			r = benchmarkFixed(e.fn, MinIterations)
		}
		res := Result{
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
			GOMAXPROCS:  procs,
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		results[e.name] = res
		if logf != nil {
			logf("%-28s %12d ns/op %12d B/op %8d allocs/op\n",
				e.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	return Snapshot{GOMAXPROCS: procs, Results: results}, nil
}

// benchmarkFixed measures fn over exactly n iterations, the way
// `go test -benchtime <n>x` does.
func benchmarkFixed(fn func(b *testing.B), n int) testing.BenchmarkResult {
	testing.Init() // registers test.benchtime; no effect inside a test binary
	prev := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", fmt.Sprintf("%dx", n)) //nolint:errcheck // a well-formed count
	defer flag.Set("test.benchtime", prev)            //nolint:errcheck // the value it had
	return testing.Benchmark(fn)
}

// measuredEnough refuses a snapshot holding a result that rests on fewer
// than MinIterations iterations.
func measuredEnough(s Snapshot) error {
	for name, r := range s.Results {
		if r.Iterations < MinIterations {
			return fmt.Errorf("bench: %s was measured over %d iteration(s), a recorded entry needs at least %d", name, r.Iterations, MinIterations)
		}
	}
	return nil
}

// ReadFile loads a benchmark file; a missing file returns an empty File.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f, nil
		}
		return f, fmt.Errorf("bench: read %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if f.SchemaVersion != SchemaVersion {
		return f, fmt.Errorf("bench: %s has schema_version %d, this build reads only version %d: delete the file and record it again (make bench-json)",
			path, f.SchemaVersion, SchemaVersion)
	}
	return f, nil
}

// UpdateFile reads the file at path, applies mutate,
// and writes the result back. Sections mutate does not touch — notably the
// baseline — are preserved.
func UpdateFile(path string, mutate func(*File)) error {
	f, err := ReadFile(path)
	if err != nil {
		return err
	}
	mutate(&f)
	f.SchemaVersion = SchemaVersion
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// WriteFile records cur as the file's current snapshot, preserving the
// baseline and scaling sections already recorded at path (if any).
func WriteFile(path string, cur Snapshot) error {
	if err := measuredEnough(cur); err != nil {
		return err
	}
	return UpdateFile(path, func(f *File) { f.Current = cur })
}

// MergeResults folds a partial snapshot (e.g. a -only rerun of a few
// entries) into the file's current section: named results are replaced,
// everything else — including results the partial run did not measure — is
// preserved.
func MergeResults(path string, partial Snapshot) error {
	if err := measuredEnough(partial); err != nil {
		return err
	}
	return UpdateFile(path, func(f *File) {
		if f.Current.Results == nil {
			f.Current.Results = make(map[string]Result, len(partial.Results))
		}
		for name, r := range partial.Results {
			f.Current.Results[name] = r
		}
		if f.Current.GOMAXPROCS == 0 {
			f.Current.GOMAXPROCS = partial.GOMAXPROCS
		}
	})
}

// WriteScaling records rep as the file's scaling section, preserving the
// baseline and current sections.
func WriteScaling(path string, rep *ScalingReport) error {
	return UpdateFile(path, func(f *File) { f.Scaling = rep })
}
