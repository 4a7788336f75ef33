package experiment

import (
	"context"
	"strings"
	"testing"
)

// quick returns fast smoke options using the loss attack.
func quick() Options {
	o := QuickOptions()
	o.UseShadowAttack = false
	return o
}

func TestFig1QuickSingleDataset(t *testing.T) {
	res, err := Fig1(context.Background(), quick(), "purchase100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d", len(res.Series))
	}
	s := res.Series[0]
	if len(s.Divergences) != 6 {
		t.Fatalf("purchase100 FCNN should have 6 layers, got %d", len(s.Divergences))
	}
	if s.MostSensitive < 0 || s.MostSensitive >= 6 {
		t.Fatalf("most sensitive = %d", s.MostSensitive)
	}
	tbl := res.Table()
	if tbl.NumRows() != 6 {
		t.Fatalf("table rows = %d", tbl.NumRows())
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
	if Table1Table().NumRows() != 17 {
		t.Fatal("rendered table row mismatch")
	}
}

func TestFig3Quick(t *testing.T) {
	o := quick()
	res, err := Fig3(context.Background(), o, "purchase100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(Fig3Defenses) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(Fig3Defenses))
	}
	for _, s := range res.Series {
		if len(s.MemberLosses) == 0 || len(s.NonMemberLosses) == 0 {
			t.Fatalf("%s: empty loss sets", s.Defense)
		}
		if s.JS < 0 {
			t.Fatalf("%s: negative JS", s.Defense)
		}
	}
	if res.Table().NumRows() != len(Fig3Defenses) {
		t.Fatal("table rows mismatch")
	}
}

func TestFig4Quick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := Fig4(context.Background(), o, "purchase100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 6 || len(res.PerLayerAUC) != 6 {
		t.Fatalf("lengths: %d/%d", len(res.Divergences), len(res.PerLayerAUC))
	}
	for l, auc := range res.PerLayerAUC {
		if auc < 50-1e-9 || auc > 100+1e-9 {
			t.Fatalf("layer %d AUC %v out of range", l, auc)
		}
	}
	if res.Table().NumRows() != 6 {
		t.Fatal("table rows mismatch")
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
		if r.LocalAUC < 50-1e-9 {
			t.Fatalf("set %s AUC %v below 50", r.Labels[0], r.LocalAUC)
		}
		if r.Accuracy < 0 || r.Accuracy > 100 {
			t.Fatalf("set %s accuracy %v", r.Labels[0], r.Accuracy)
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
	if none.Defense != "none" || dinarCell.Defense != "dinar" {
		t.Fatal("cell order wrong")
	}
	// Even at quick scale, the undefended system must leak more than DINAR's
	// uploads.
	if none.LocalAUC <= dinarCell.LocalAUC {
		t.Fatalf("none localAUC %v should exceed dinar %v", none.LocalAUC, dinarCell.LocalAUC)
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
	if res.Table().NumRows() != 2 || fig7.Table().NumRows() != 2 {
		t.Fatal("table rows mismatch")
	}
}

func TestTable3Quick(t *testing.T) {
	o := quick()
	o.Records = 400
	res, err := Table3(context.Background(), o, "purchase100", []string{"none", "dinar", "ldp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Defense != "none" || res.Rows[0].TrainOverheadPct != 0 {
		t.Fatalf("baseline row wrong: %+v", res.Rows[0])
	}
	for _, r := range res.Rows {
		if r.ClientTrain <= 0 || r.ServerAgg <= 0 {
			t.Fatalf("%s: zero cost measurements", r.Defense)
		}
	}
	if res.Table().NumRows() != 3 {
		t.Fatal("table rows mismatch")
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
	if res.Table().NumRows() != 2 {
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
	if res.Table().NumRows() != 2 {
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
	if res.Table().NumRows() != 3 {
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
	if res.Table().NumRows() != 2 {
		t.Fatal("table rows mismatch")
	}
}

// TestSweepShape: at the paper's axes every registered sweep builds cases
// whose label tuples are unique and as wide as its label headers, so its
// rendered table has len(headers) cells in every row. Nothing trains.
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
			if len(c.Labels) != len(s.Labels) || seen[key] {
				t.Errorf("%s: labels %q: want %d of them, unique", s.ID, c.Labels, len(s.Labels))
			}
			seen[key] = true
			res.Rows = append(res.Rows, Row{Labels: c.Labels})
		}
		// Title, headers, rule, rows; cells are padded, so equal line lengths
		// are equal cell counts.
		lines := strings.Split(strings.TrimSuffix(res.Table().String(), "\n"), "\n")
		if len(lines) != 3+len(cases) || strings.Contains(lines[0], "{dataset}") {
			t.Fatalf("%s: rendered %d lines for %d cases under %q", s.ID, len(lines), len(cases), lines[0])
		}
		for _, l := range lines[2:] {
			if len(l) != len(lines[1]) {
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
		{"dinar", "adagrad", o.AdaptiveLearningRate},
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
	o.LearningRate = 0.3
	cfg = o.flConfig("cifar10", "sgd")
	if cfg.LearningRate != 0.3 {
		t.Fatalf("explicit sgd lr = %v", cfg.LearningRate)
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
		if p.LocalAUC < 50-1e-9 {
			t.Fatalf("%s AUC %v", p.Labels[0], p.LocalAUC)
		}
	}
	if res.Table().NumRows() != 2 {
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
