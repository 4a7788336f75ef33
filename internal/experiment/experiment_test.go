package experiment

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// quick returns fast smoke options using the loss attack.
func quick() Options {
	o := QuickOptions()
	o.UseShadowAttack = false
	return o
}

// paper returns the axes the paper ran for the sweep with the given ID.
func paper(id string) Axes {
	return Sweeps[slices.IndexFunc(Sweeps, func(s Sweep) bool { return s.ID == id })].Paper
}

// row returns the row of res with the given labels.
func row(t *testing.T, res *SweepResult, labels ...string) Row {
	t.Helper()
	i := slices.IndexFunc(res.Rows, func(r Row) bool { return slices.Equal(r.Labels, labels) })
	if i < 0 {
		t.Fatalf("%s: no row %q", res.Sweep.ID, labels)
	}
	return res.Rows[i]
}

func TestFig1QuickSingleDataset(t *testing.T) {
	res, err := RunSweep(context.Background(), "fig1", quick(), Axes{Datasets: []string{"purchase100"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("purchase100 FCNN should have 6 layers, got %d", len(res.Rows))
	}
	for l, r := range res.Rows {
		if !slices.Equal(r.Labels, []string{"purchase100", strconv.Itoa(l)}) {
			t.Fatalf("row %d labels = %q", l, r.Labels)
		}
	}
	most := res.Series(MetricMostSensitive)
	if marked := slices.DeleteFunc(slices.Clone(most), func(v float64) bool { return v == 0 }); !slices.Equal(marked, []float64{1}) {
		t.Fatalf("most sensitive marks = %v, want exactly one", most)
	}
	tbl := res.Table()
	if tableRows(tbl) != 6 || strings.Count(tbl.String(), "<== obfuscation target") != 1 {
		t.Fatalf("table rows = %d:\n%s", tableRows(tbl), tbl)
	}
}

func TestTable1Static(t *testing.T) {
	rows := Table1()
	if len(rows) != 17 {
		t.Fatalf("Table 1 rows = %d, want 17", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Method != "DINAR" || last.Overhead != "yes" {
		t.Fatalf("last row should be DINAR with negligible overhead: %+v", last)
	}
	runnable := 0
	for _, r := range rows {
		if r.InRepo {
			runnable++
		}
	}
	if runnable != 6 { // SA, CDP, LDP, WDP, GC, DINAR
		t.Fatalf("runnable methods = %d, want 6", runnable)
	}
	if tableRows(Table1Table()) != 17 {
		t.Fatal("rendered table row mismatch")
	}
}

func TestFig3Quick(t *testing.T) {
	o := quick()
	defenses := paper("fig3").Defenses
	res, err := RunSweep(context.Background(), "fig3", o, Axes{Dataset: "purchase100", Defenses: defenses})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(defenses) {
		t.Fatalf("series = %d, want %d", len(res.Rows), len(defenses))
	}
	for _, r := range res.Rows {
		// A cross-entropy mean is positive only over a non-empty loss set.
		if !(r.Values[MetricMemberLoss] > 0) || !(r.Values[MetricNonMemberLoss] > 0) {
			t.Fatalf("%s: empty loss sets: %v", r.Labels[0], r.Values)
		}
		if r.Values[MetricJS] < 0 {
			t.Fatalf("%s: negative JS", r.Labels[0])
		}
	}
	if tableRows(res.Table()) != len(defenses) {
		t.Fatal("table rows mismatch")
	}
}

// TestFig3DefaultBatchSize: a zero Options.BatchSize falls back to the
// federation's default, in the loss reading too.
func TestFig3DefaultBatchSize(t *testing.T) {
	o := quick()
	o.Records, o.Rounds, o.LocalEpochs, o.BatchSize = 300, 1, 1, 0
	res, err := RunSweep(context.Background(), "fig3", o, Axes{Dataset: "purchase100", Defenses: []string{"none"}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Rows[0].Values; !(v[MetricMemberLoss] > 0) {
		t.Fatalf("no member losses: %v", v)
	}
}

func TestFig4Quick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := RunSweep(context.Background(), "fig4", o, Axes{Dataset: "purchase100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("layers = %d", len(res.Rows))
	}
	for l, auc := range res.Series(MetricObfuscatedAUC) {
		if auc < 50-1e-9 || auc > 100+1e-9 {
			t.Fatalf("layer %d AUC %v out of range", l, auc)
		}
	}
	tbl := res.Table()
	baseline := fmt.Sprintf("(no-defense local AUC %.1f%%)", res.Rows[0].Values[MetricLocalAUC])
	if tableRows(tbl) != 6 || !strings.Contains(tbl.String(), baseline) {
		t.Fatalf("table lacks %d rows or %q:\n%s", 6, baseline, tbl)
	}
}

func TestFig5LayerSets(t *testing.T) {
	sets := fig5LayerSets(6)
	if len(sets) != 6 {
		t.Fatalf("sets = %d", len(sets))
	}
	// First set: penultimate layer only (0-based index 4 of 6).
	if len(sets[0]) != 1 || sets[0][0] != 4 {
		t.Fatalf("first set = %v, want [4]", sets[0])
	}
	// Second set: {3,4}.
	if len(sets[1]) != 2 || sets[1][0] != 3 || sets[1][1] != 4 {
		t.Fatalf("second set = %v, want [3 4]", sets[1])
	}
	// Last set: all six layers.
	if len(sets[5]) != 6 || sets[5][0] != 0 || sets[5][5] != 5 {
		t.Fatalf("last set = %v", sets[5])
	}
	if setLabel(sets[0]) != "5" {
		t.Fatalf("label = %q, want 5 (1-based)", setLabel(sets[0]))
	}
	if setLabel(sets[5]) != "1-2-3-4-5-6" {
		t.Fatalf("label = %q", setLabel(sets[5]))
	}
}

func TestFig5Quick(t *testing.T) {
	o := quick()
	o.Records = 400
	o.Rounds = 2
	res, err := RunSweep(context.Background(), "fig5", o, Axes{Dataset: "purchase100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("sets = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if auc := r.Values[MetricLocalAUC]; auc < 50-1e-9 {
			t.Fatalf("set %s AUC %v below 50", r.Labels[0], auc)
		}
		if acc := r.Values[MetricAccuracy]; acc < 0 || acc > 100 {
			t.Fatalf("set %s accuracy %v", r.Labels[0], acc)
		}
	}
}

func TestFig6QuickSubset(t *testing.T) {
	o := quick()
	ax := Axes{Datasets: []string{"purchase100"}, Defenses: []string{"none", "dinar"}}
	res, err := RunSweep(context.Background(), "fig6", o, ax)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	none, dinarCell := res.Rows[0], res.Rows[1]
	if none.Labels[1] != "none" || dinarCell.Labels[1] != "dinar" {
		t.Fatal("cell order wrong")
	}
	// Even at quick scale, the undefended system must leak more than DINAR's
	// uploads.
	if n, d := none.Values[MetricLocalAUC], dinarCell.Values[MetricLocalAUC]; n <= d {
		t.Fatalf("none localAUC %v should exceed dinar %v", n, d)
	}
	// Figure 7 is another reading of the same federations: its rows are
	// Figure 6's, not a second run's.
	fig7, err := RunSweep(context.Background(), "fig7", o, ax)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig7.Rows) != 2 || &fig7.Rows[0] != &res.Rows[0] {
		t.Fatal("fig7 did not reuse fig6's rows")
	}
	if tableRows(res.Table()) != 2 || tableRows(fig7.Table()) != 2 {
		t.Fatal("table rows mismatch")
	}
}

func TestTable3Quick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := RunSweep(context.Background(), "table3", o, Axes{Dataset: "purchase100", Defenses: []string{"none", "dinar", "ldp"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	trainOverhead := res.Sweep.Columns[1]
	if res.Rows[0].Labels[0] != "none" || res.cell(res.Rows[0], trainOverhead) != 0.0 {
		t.Fatalf("baseline row wrong: %+v", res.Rows[0])
	}
	for _, r := range res.Rows {
		if r.Values[MetricClientTrain] <= 0 || r.Values[MetricServerAgg] <= 0 {
			t.Fatalf("%s: zero cost measurements", r.Labels[0])
		}
	}
	if tableRows(res.Table()) != 3 {
		t.Fatal("table rows mismatch")
	}
}

// TestTable3OverheadIsOverNone: a row's overhead is over the "none" row
// wherever that row sits, not over rows read before it.
func TestTable3OverheadIsOverNone(t *testing.T) {
	o := quick()
	o.Records, o.Rounds, o.LocalEpochs = 300, 1, 1
	res, err := RunSweep(context.Background(), "table3", o, Axes{Dataset: "purchase100", Defenses: []string{"dinar", "none"}})
	if err != nil {
		t.Fatal(err)
	}
	dinar, none := res.Rows[0].Values, res.Rows[1].Values
	for _, c := range res.Sweep.Columns {
		if !c.Overhead {
			continue
		}
		want := metrics.Overhead(time.Duration(dinar[c.Metric]), time.Duration(none[c.Metric]))
		if got := res.cell(res.Rows[0], c); got != want || want == 0 {
			t.Errorf("%s of dinar = %v, want %v over none", c.Header, got, want)
		}
		if got := res.cell(res.Rows[1], c); got != 0.0 {
			t.Errorf("%s of none = %v, want 0", c.Header, got)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	o := quick()
	o.Records = 600
	res, err := RunSweep(context.Background(), "fig8", o, Axes{Dataset: "purchase100", Alphas: []float64{2}, Defenses: []string{"none", "dinar"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	if tableRows(res.Table()) != 2 {
		t.Fatal("table rows mismatch")
	}
}

func TestFig9Quick(t *testing.T) {
	o := quick()
	res, err := RunSweep(context.Background(), "fig9", o, Axes{Dataset: "purchase100", Clients: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // none + dinar
		t.Fatalf("points = %d", len(res.Rows))
	}
	if tableRows(res.Table()) != 2 {
		t.Fatal("table rows mismatch")
	}
}

func TestFig10Quick(t *testing.T) {
	o := quick()
	res, err := RunSweep(context.Background(), "fig10", o, Axes{Dataset: "purchase100", Budgets: []float64{0.2}})
	if err != nil {
		t.Fatal(err)
	}
	// no defense + 1 budget + dinar.
	if len(res.Rows) != 3 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	if !strings.Contains(res.Rows[1].Labels[0], "eps=0.2") {
		t.Fatalf("label = %q", res.Rows[1].Labels[0])
	}
	if tableRows(res.Table()) != 3 {
		t.Fatal("table rows mismatch")
	}
}

func TestFig11Quick(t *testing.T) {
	o := quick()
	res, err := RunSweep(context.Background(), "fig11", o, Axes{Dataset: "purchase100", Optimizers: []string{"adagrad", "adam"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	if tableRows(res.Table()) != 2 {
		t.Fatal("table rows mismatch")
	}
}

// TestSweepShape: at the paper's axes every registered sweep builds cases
// whose label tuples are unique and no wider than its label headers, and its
// rendered table — label cells padded to full width as a multi-row reading
// fills them, pivoted where the sweep pivots — has as many cells in every row
// as headers, under a title with no placeholder left. Nothing trains.
func TestSweepShape(t *testing.T) {
	for i := range Sweeps {
		s := &Sweeps[i]
		cases, err := s.Cases(quick(), s.Paper)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if len(cases) == 0 || len(s.Columns) == 0 {
			t.Fatalf("%s: %d cases, %d columns", s.ID, len(cases), len(s.Columns))
		}
		res := &SweepResult{Sweep: s, Axes: s.Paper}
		seen := map[string]bool{}
		for _, c := range cases {
			key := strings.Join(c.Labels, "|")
			if len(c.Labels) > len(s.Labels) || seen[key] {
				t.Errorf("%s: labels %q: want at most %d of them, unique", s.ID, c.Labels, len(s.Labels))
			}
			seen[key] = true
			labels := slices.Clone(c.Labels)
			for len(labels) < len(s.Labels) {
				labels = append(labels, "0")
			}
			res.Rows = append(res.Rows, Row{Labels: labels})
		}
		lines := len(cases)
		if s.Pivot {
			lines /= len(s.Paper.Aggregators)
		}
		// Title, headers, rule, rows; cells are padded, so equal line lengths
		// are equal cell counts.
		out := strings.Split(strings.TrimSuffix(res.Table().String(), "\n"), "\n")
		if len(out) != 3+lines || strings.ContainsAny(out[0], "{}") {
			t.Fatalf("%s: rendered %d lines for %d rows under %q", s.ID, len(out), lines, out[0])
		}
		for _, l := range out[2:] {
			if len(l) != len(out[1]) {
				t.Errorf("%s: row %q is not as wide as the headers", s.ID, l)
			}
		}
	}
}

func TestRegistryDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("registered experiments = %d, want 15", len(ids))
	}
	tbl, err := Run(context.Background(), "table1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "DINAR") {
		t.Fatal("table1 output missing DINAR")
	}
	if _, err := Run(context.Background(), "nope", quick()); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

// TestOptimizerFor: the evaluation's federation trains each defense with the
// optimizer fl.OptimizerFor names, at that optimizer's rate, and builds the
// defense on the federation's defense stream.
func TestOptimizerFor(t *testing.T) {
	o := DefaultOptions()
	for _, row := range []struct {
		defense, optimizer string
		lr                 float64
	}{
		{"dinar", "adagrad", 0.01},
		{"dpfedsam", "sam", 0.8},
		{"ldp", "sgd", 0.8},
	} {
		cfg, def, err := o.Federation("purchase100", row.defense)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Optimizer != row.optimizer || cfg.LearningRate != row.lr || def.Name() != row.defense {
			t.Errorf("%s: optimizer %q at %v under %q, want %q at %v",
				row.defense, cfg.Optimizer, cfg.LearningRate, def.Name(), row.optimizer, row.lr)
		}
	}
	if _, _, err := o.Federation("purchase100", "nope"); err == nil {
		t.Error("accepted an unknown defense")
	}
}

func TestFlConfigLearningRates(t *testing.T) {
	o := DefaultOptions()
	cfg := o.flConfig("purchase100", "sgd")
	if cfg.LearningRate != 0.8 {
		t.Fatalf("purchase100 sgd lr = %v", cfg.LearningRate)
	}
	cfg = o.flConfig("purchase100", "adagrad")
	if cfg.LearningRate != 0.01 {
		t.Fatalf("adagrad lr = %v", cfg.LearningRate)
	}
}

func TestAblationObfuscationQuick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := RunSweep(context.Background(), "ablation-obf", o, Axes{Dataset: "purchase100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	for _, p := range res.Rows {
		if auc := p.Values[MetricLocalAUC]; auc < 50-1e-9 {
			t.Fatalf("%s AUC %v", p.Labels[0], auc)
		}
	}
	if tableRows(res.Table()) != 2 {
		t.Fatal("table rows mismatch")
	}
}

func TestAblationRobustQuick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := RunSweep(context.Background(), "ablation-robust", o, Axes{Dataset: "purchase100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("points = %d", len(res.Rows))
	}
	if res.Rows[1].Labels[0] != "median" {
		t.Fatalf("labels: %+v", res.Rows)
	}
}

// tableRows counts the rows a rendered table prints below its header rule.
func tableRows(tbl fmt.Stringer) int {
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	for i, l := range lines {
		if strings.Trim(l, "- ") == "" {
			return len(lines) - i - 1
		}
	}
	return 0
}
