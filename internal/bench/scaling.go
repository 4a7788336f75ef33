package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/experiment"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DefaultCPUCounts returns the sweep's CPU settings: {1, 2, 4, NumCPU},
// deduplicated and sorted. Settings above runtime.NumCPU() are kept — they
// measure scheduling overhead honestly rather than pretending extra cores
// exist.
func DefaultCPUCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(counts)
	return slices.Compact(counts)
}

// RunScaling sweeps the hot-path suite over the given GOMAXPROCS settings,
// sizing the compute pool to match at each step, and returns per-benchmark
// speedup and parallel-scaling efficiency relative to the sweep's smallest
// CPU count. Before timing anything at a setting, it verifies the parallel
// kernels against their serial outputs and a seeded quick-scale Figure 4
// run against the serial reference, returning an error (and timing nothing
// further) on the first bit-level divergence. GOMAXPROCS and the pool size
// are restored before returning.
func RunScaling(counts []int, logf func(format string, args ...any)) (*ScalingReport, error) {
	if len(counts) == 0 {
		counts = DefaultCPUCounts()
	}
	prevProcs := runtime.GOMAXPROCS(0)
	prevWorkers := parallel.Workers()
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetWorkers(prevWorkers)
	}()

	// Serial reference for the end-to-end determinism gate.
	runtime.GOMAXPROCS(1)
	parallel.SetWorkers(1)
	refFig4, err := quickFig4()
	if err != nil {
		return nil, fmt.Errorf("bench: serial fig4 reference: %w", err)
	}

	rep := &ScalingReport{
		HostCPUs:  runtime.NumCPU(),
		CPUCounts: append([]int(nil), counts...),
		Results:   make(map[string][]ScalingResult, len(suite)),
	}
	if rep.HostCPUs < counts[len(counts)-1] {
		rep.Note = fmt.Sprintf("host has %d CPU(s); settings above that measure scheduling overhead, not parallel speedup", rep.HostCPUs)
	}
	for _, p := range counts {
		if p < 1 {
			return nil, fmt.Errorf("bench: invalid CPU count %d", p)
		}
		runtime.GOMAXPROCS(p)
		parallel.SetWorkers(p)
		if err := CheckParallelDeterminism(p); err != nil {
			return nil, fmt.Errorf("bench: GOMAXPROCS=%d: %w", p, err)
		}
		got, err := quickFig4()
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 at GOMAXPROCS=%d: %w", p, err)
		}
		if got != refFig4 {
			return nil, fmt.Errorf("bench: PARALLEL DIVERGENCE: seeded fig4 output at GOMAXPROCS=%d differs from the serial run:\n--- serial ---\n%s\n--- GOMAXPROCS=%d ---\n%s", p, refFig4, p, got)
		}
		if logf != nil {
			logf("GOMAXPROCS=%d: determinism checks passed, timing suite...\n", p)
		}
		for _, e := range suite {
			r := testing.Benchmark(e.fn)
			rep.Results[e.name] = append(rep.Results[e.name], ScalingResult{
				GOMAXPROCS: p,
				NsPerOp:    r.NsPerOp(),
				Iterations: r.N,
				Degenerate: p > rep.HostCPUs,
			})
			if logf != nil {
				logf("  %-28s %12d ns/op\n", e.name, r.NsPerOp())
			}
		}
	}
	rep.finalize()
	return rep, nil
}

// finalize computes each measurement's speedup and efficiency relative to
// the sweep's smallest CPU count. Exposed (package-internally) so the
// derivation is unit-testable on synthetic multi-CPU data independent of a
// real sweep.
func (r *ScalingReport) finalize() {
	for name, rs := range r.Results {
		if len(rs) == 0 {
			continue
		}
		base := float64(rs[0].NsPerOp)
		for i := range rs {
			if rs[i].NsPerOp > 0 {
				rs[i].Speedup = base / float64(rs[i].NsPerOp)
				rs[i].Efficiency = rs[i].Speedup * float64(rs[0].GOMAXPROCS) / float64(rs[i].GOMAXPROCS)
			}
		}
		r.Results[name] = rs
	}
}

// quickFig4 runs the seeded quick-scale Figure 4 experiment and returns a
// canonical string of every numeric output, the bit-level fingerprint the
// sweep compares across CPU counts.
func quickFig4() (string, error) {
	o := experiment.QuickOptions()
	o.UseShadowAttack = false
	o.Records = 400
	res, err := experiment.RunSweep(context.Background(), "fig4", o, experiment.Axes{Dataset: "purchase100"})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("divergences=%v perLayerAUC=%v baselineAUC=%v mostSensitive=%d",
		res.Series(experiment.MetricJS), res.Series(experiment.MetricObfuscatedAUC),
		res.Rows[0].Values[experiment.MetricLocalAUC], slices.Index(res.Series(experiment.MetricMostSensitive), 1)), nil
}

// CheckParallelDeterminism recomputes the seeded outputs of every kernel and
// layer that splits across the pool with the pool sized 1 and sized at workers and returns an error naming the
// first divergent element. It is the loud failure path of the scaling
// sweep: a parallel kernel that is not bit-identical to its serial
// counterpart must never be timed as if it were correct.
func CheckParallelDeterminism(workers int) error {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	// Shrink the split threshold so even the check's small shapes exercise
	// the parallel paths.
	prevMin := parallel.SetMinWork(64)
	defer parallel.SetMinWork(prevMin)

	type variant struct {
		name string
		run  func() []float64
	}
	rng := rand.New(rand.NewSource(409))
	a := tensor.Randn(rng, 0, 1, 37, 23)
	b := tensor.Randn(rng, 0, 1, 23, 29)
	bt := tensor.Randn(rng, 0, 1, 29, 23)
	at := tensor.Randn(rng, 0, 1, 23, 37)
	x4 := tensor.Randn(rng, 0, 1, 5, 3, 9, 9)
	x2 := tensor.Randn(rng, 0, 1, 9, 13)

	matmul := func(into func(out, x, y *tensor.Tensor) error, x, y *tensor.Tensor) func() []float64 {
		return func() []float64 {
			out := tensor.New(37, 29)
			if err := into(out, x, y); err != nil {
				panic(err)
			}
			return out.Data()
		}
	}
	variants := []variant{
		{"matmul", matmul(tensor.MatMulInto, a, b)},
		{"matmul_transb", matmul(tensor.MatMulTransBInto, a, bt)},
		{"matmul_transa", matmul(tensor.MatMulTransAInto, at, b)},
		{"conv2d_step", func() []float64 {
			return layerFingerprint(nn.NewConv2D(3, 4, 3, 1, 1, rand.New(rand.NewSource(11))), x4)
		}},
		{"conv2d_infer", func() []float64 {
			// An inference forward keeps nothing for Backward; its
			// batch-parallel tiles must stay serial-identical too.
			layer := nn.NewConv2D(3, 4, 3, 1, 1, rand.New(rand.NewSource(11)))
			return append([]float64(nil), layer.Forward(x4, false).Data()...)
		}},
		{"dense_act_step", func() []float64 {
			return layerFingerprint(nn.NewDenseAct(13, 7, nn.ActTanh, rand.New(rand.NewSource(13))), x2)
		}},
	}
	for _, v := range variants {
		parallel.SetWorkers(1)
		want := v.run()
		parallel.SetWorkers(workers)
		got := v.run()
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("PARALLEL DIVERGENCE: %s[%d] = %v with %d workers, %v serial", v.name, i, got[i], workers, want[i])
			}
		}
	}
	return nil
}

// layerFingerprint runs a Forward+Backward step and concatenates the
// output, input gradient, and parameter gradients into one comparable
// vector.
func layerFingerprint(layer nn.Layer, x *tensor.Tensor) []float64 {
	out := layer.Forward(x, true)
	fp := append([]float64(nil), out.Data()...)
	g := tensor.Randn(rand.New(rand.NewSource(12)), 0, 1, out.Shape()...)
	gin := layer.Backward(g)
	fp = append(fp, gin.Data()...)
	for _, pg := range layer.Grads() {
		fp = append(fp, pg.Data()...)
	}
	return fp
}
