package dinar

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark regenerates the experiment's
// rows/series at a reduced, CPU-friendly scale and reports the wall-clock
// cost of one full regeneration.
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration (larger datasets/rounds, shadow-model attack) is
// available through cmd/dinar-bench. EXPERIMENTS.md records paper-vs-measured
// values from full-scale runs.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// benchOptions is the reduced configuration used by the benchmarks so a full
// `go test -bench=.` pass stays tractable.
func benchOptions() experiment.Options {
	o := experiment.QuickOptions()
	o.UseShadowAttack = false
	return o
}

// paperAxes returns the axes the paper ran for the sweep id, on dataset.
func paperAxes(id, dataset string) experiment.Axes {
	for _, s := range experiment.Sweeps {
		if s.ID == id {
			ax := s.Paper
			ax.Dataset = dataset
			return ax
		}
	}
	panic("no sweep " + id)
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Run(ctx, id, o)
		if err != nil {
			b.Fatal(err)
		}
		// A table without rows ends at its header rule.
		if lines := strings.Split(strings.TrimSpace(tbl.String()), "\n"); strings.Trim(lines[len(lines)-1], "- ") == "" {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1Taxonomy regenerates Table 1 (defense taxonomy).
func BenchmarkTable1Taxonomy(b *testing.B) { benchmarkExperiment(b, "table1") }

// BenchmarkFig1LayerDivergence regenerates Figure 1 (per-layer JS divergence
// of member vs non-member gradients) on one tabular and one image dataset.
func BenchmarkFig1LayerDivergence(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSweep(ctx, "fig1", o, experiment.Axes{Datasets: []string{"purchase100", "gtsrb"}})
		if err != nil {
			b.Fatal(err)
		}
		if last := res.Rows[len(res.Rows)-1]; last.Labels[0] != "gtsrb" {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig3LossDistribution regenerates Figure 3 (member vs non-member
// loss distributions across defenses).
func BenchmarkFig3LossDistribution(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig3", o, paperAxes("fig3", "purchase100")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4PerLayerProtection regenerates Figure 4 (per-layer divergence
// and single-layer obfuscation sweep).
func BenchmarkFig4PerLayerProtection(b *testing.B) {
	o := benchOptions()
	o.Records = 400
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig4", o, experiment.Axes{Dataset: "purchase100"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5MultiLayer regenerates Figure 5 (obfuscating growing layer
// sets: privacy stays optimal, utility degrades).
func BenchmarkFig5MultiLayer(b *testing.B) {
	o := benchOptions()
	o.Records = 400
	o.Rounds = 2
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig5", o, experiment.Axes{Dataset: "purchase100"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Privacy regenerates Figure 6 (attack AUC per defense, global
// and local models) on one dataset with the full defense suite.
func BenchmarkFig6Privacy(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig6", o, experiment.Axes{Datasets: []string{"purchase100"}, Defenses: Defenses()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Tradeoff regenerates Figure 7 (privacy vs utility scatter),
// which shares Figure 6's runs.
func BenchmarkFig7Tradeoff(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSweep(ctx, "fig7", o, experiment.Axes{Datasets: []string{"purchase100"}, Defenses: []string{"none", "ldp", "dinar"}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no scatter points")
		}
	}
}

// BenchmarkTable3Cost regenerates Table 3 (client/server/memory overheads per
// defense).
func BenchmarkTable3Cost(b *testing.B) {
	o := benchOptions()
	o.Records = 400
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "table3", o, paperAxes("table3", "purchase100")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8NonIID regenerates Figure 8 (non-IID Dirichlet sweep).
func BenchmarkFig8NonIID(b *testing.B) {
	o := benchOptions()
	o.Records = 600
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig8", o, experiment.Axes{Dataset: "purchase100", Alphas: []float64{0.8, 5}, Defenses: []string{"none", "dinar"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Clients regenerates Figure 9 (client-count sweep).
func BenchmarkFig9Clients(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig9", o, experiment.Axes{Dataset: "purchase100", Clients: []int{3, 5}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Budgets regenerates Figure 10 (LDP privacy-budget sweep).
func BenchmarkFig10Budgets(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig10", o, experiment.Axes{Dataset: "purchase100", Budgets: []float64{0.2, 2.2}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Ablation regenerates Figure 11 (optimizer ablation inside
// DINAR).
func BenchmarkFig11Ablation(b *testing.B) {
	o := benchOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(ctx, "fig11", o, experiment.Axes{Dataset: "purchase100", Optimizers: []string{"adagrad", "adam"}}); err != nil {
			b.Fatal(err)
		}
	}
}
