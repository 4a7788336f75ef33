package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// PrivacyCell is the paper's one reading of a finished federation (§5,
// Appendix A), in percent.
type PrivacyCell struct {
	Defense string
	// GlobalAUC and LocalAUC are attack AUCs against the global model and
	// the clients' uploaded models.
	GlobalAUC, LocalAUC float64
	// Accuracy is the mean personalized-model test accuracy.
	Accuracy float64
}

// Metric names one number of a PrivacyCell.
type Metric int

const (
	MetricGlobalAUC Metric = iota
	MetricLocalAUC
	MetricAccuracy
)

// Metric returns the named number.
func (c PrivacyCell) Metric(m Metric) float64 {
	return [...]float64{c.GlobalAUC, c.LocalAUC, c.Accuracy}[m]
}

// Column is one printed metric column of a sweep.
type Column struct {
	Header string
	Metric Metric
}

var (
	attackAUC = Column{"Attack AUC (%)", MetricLocalAUC}
	accuracy  = Column{"Model accuracy (%)", MetricAccuracy}
)

// Axes are the values a sweep runs along; a sweep reads only the fields it
// varies, and Sweep.Paper holds the paper's.
type Axes struct {
	Dataset    string    // every sweep but Fig 6/7
	Datasets   []string  // Fig 6/7
	Defenses   []string  // Fig 6/7, Fig 8
	Alphas     []float64 // Fig 8: Dirichlet concentrations, +Inf = IID
	Clients    []int     // Fig 9
	Budgets    []float64 // Fig 10: LDP ε
	Optimizers []string  // Fig 11
}

// Case is one federation of a sweep: what its row is called, and what runs.
type Case struct {
	Labels []string
	Cfg    fl.Config
	Def    fl.Defense
}

// Row is one measured case.
type Row struct {
	Labels []string
	PrivacyCell
}

// Sweep is one privacy/utility artifact of §5 as data: the same reading of
// one federation re-run along the artifact's axes.
type Sweep struct {
	ID string
	// Title heads the table; "{dataset}" stands for Axes.Dataset.
	Title string
	// Labels are the headers of the label columns, Columns the metrics
	// printed after them.
	Labels  []string
	Columns []Column
	// Paper is the axes the paper ran, and the registry runs.
	Paper Axes
	// Cases lists the federations in row order.
	Cases func(o Options, ax Axes) ([]Case, error)
	// LossAttack pins the loss-threshold attacker at every scale.
	LossAttack bool
	// Memo, when set, keeps the measured rows under this name: sweeps that
	// name the same memo and build the same cases (Fig 6 and Fig 7) are two
	// readings of one set of federations, trained once.
	Memo string
}

// Sweeps are Figures 5–11 and the two ablations.
var Sweeps = []Sweep{{
	ID:         "fig5",
	Title:      "Figure 5: obfuscating more layers — {dataset}",
	Labels:     []string{"Obfuscated layers"},
	Columns:    []Column{attackAUC, accuracy},
	Paper:      Axes{Dataset: "purchase100"},
	Cases:      fig5Cases,
	LossAttack: true,
}, {
	ID:      "fig6",
	Title:   "Figure 6: attack AUC (%) per dataset and defense — optimum is 50%",
	Labels:  []string{"Dataset", "Defense"},
	Columns: []Column{{"Global model AUC", MetricGlobalAUC}, {"Local models AUC", MetricLocalAUC}},
	Paper:   fig6Axes,
	Cases:   fig6Cases,
	Memo:    "fig6",
}, {
	ID:      "fig7",
	Title:   "Figure 7: privacy vs utility trade-off (local models) — best is bottom-right",
	Labels:  []string{"Dataset", "Defense"},
	Columns: []Column{accuracy, attackAUC},
	Paper:   fig6Axes,
	Cases:   fig6Cases,
	Memo:    "fig6",
}, {
	ID:      "fig8",
	Title:   "Figure 8: privacy vs utility under non-IID settings — {dataset}",
	Labels:  []string{"Dirichlet alpha", "Defense"},
	Columns: []Column{attackAUC, accuracy},
	Paper: Axes{Dataset: "gtsrb", Alphas: []float64{0.8, 2, 5, math.Inf(1)},
		Defenses: []string{"none", "wdp", "cdp", "ldp", "dinar"}},
	Cases: fig8Cases,
}, {
	ID:      "fig9",
	Title:   "Figure 9: privacy and utility vs number of FL clients — {dataset}",
	Labels:  []string{"Clients", "Defense"},
	Columns: []Column{attackAUC, accuracy},
	Paper:   Axes{Dataset: "purchase100", Clients: []int{5, 10, 20, 40}},
	Cases:   fig9Cases,
}, {
	ID:      "fig10",
	Title:   "Figure 10: LDP privacy budgets vs DINAR — {dataset}",
	Labels:  []string{"Configuration"},
	Columns: []Column{attackAUC, accuracy},
	Paper:   Axes{Dataset: "purchase100", Budgets: []float64{0.05, 0.2, 1, 2.2}},
	Cases:   fig10Cases,
}, {
	ID:      "fig11",
	Title:   "Figure 11: DINAR optimizer ablation — {dataset} (adagrad = full DINAR)",
	Labels:  []string{"Optimizer"},
	Columns: []Column{accuracy, attackAUC},
	Paper:   Axes{Dataset: "purchase100", Optimizers: []string{"adam", "adgd", "adamax", "adagrad"}},
	Cases:   fig11Cases,
}, {
	ID:      "ablation-obf",
	Title:   "Ablation: obfuscation distribution — {dataset}",
	Labels:  []string{"Variant"},
	Columns: []Column{attackAUC, accuracy},
	Paper:   Axes{Dataset: "purchase100"},
	Cases:   obfuscationCases,
}, {
	ID:      "ablation-robust",
	Title:   "Ablation: robust aggregation under DINAR — {dataset}",
	Labels:  []string{"Variant"},
	Columns: []Column{attackAUC, accuracy},
	Paper:   Axes{Dataset: "purchase100"},
	Cases:   robustCases,
}}

// fig6Axes are the six datasets of the paper's Figure 6, in its order, under
// the full defense suite.
var fig6Axes = Axes{
	Datasets: []string{"purchase100", "cifar10", "cifar100", "speechcommands", "celeba", "gtsrb"},
	Defenses: defense.StandardNames,
}

// SweepResult is a sweep's measured rows and what renders them.
type SweepResult struct {
	Sweep *Sweep
	Axes  Axes
	Rows  []Row
}

// sweepMemo holds the rows of sweeps that name a Memo.
var sweepMemo sync.Map // sweepKey -> []Row

type sweepKey struct {
	o    Options
	memo string
	axes string // fmt.Sprint of the Axes
}

// RunSweep trains and measures, in order, every case the sweep with the
// given ID has along ax.
func RunSweep(ctx context.Context, id string, o Options, ax Axes) (*SweepResult, error) {
	i := slices.IndexFunc(Sweeps, func(s Sweep) bool { return s.ID == id })
	if i < 0 {
		return nil, fmt.Errorf("experiment: unknown sweep %q", id)
	}
	s := &Sweeps[i]
	res := &SweepResult{Sweep: s, Axes: ax}
	if s.LossAttack {
		o.UseShadowAttack = false
	}
	key := sweepKey{o: o, memo: s.Memo, axes: fmt.Sprint(ax)}
	if rows, ok := sweepMemo.Load(key); ok { // only a sweep naming a Memo stores
		res.Rows = rows.([]Row)
		return res, nil
	}
	cases, err := s.Cases(o, ax)
	if err != nil {
		return nil, err
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("experiment: %s has no case along %+v", id, ax)
	}
	for _, c := range cases {
		run, err := RunFL(ctx, c.Cfg, c.Def)
		if err != nil {
			return nil, err
		}
		cell, err := o.Measure(run)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{Labels: c.Labels, PrivacyCell: *cell})
	}
	if s.Memo != "" {
		sweepMemo.Store(key, res.Rows)
	}
	return res, nil
}

// Table renders the rows: the label cells, then the sweep's metric columns.
func (r *SweepResult) Table() *metrics.Table {
	headers := append([]string(nil), r.Sweep.Labels...)
	for _, c := range r.Sweep.Columns {
		headers = append(headers, c.Header)
	}
	t := metrics.NewTable(strings.ReplaceAll(r.Sweep.Title, "{dataset}", r.Axes.Dataset), headers...)
	for _, row := range r.Rows {
		cells := make([]interface{}, 0, len(headers))
		for _, l := range row.Labels {
			cells = append(cells, l)
		}
		for _, c := range r.Sweep.Columns {
			cells = append(cells, row.Metric(c.Metric))
		}
		t.AddRow(cells...)
	}
	return t
}

// named is the case every registry defense contributes: the federation
// Options describes for dataset, under the named defense.
func (o Options) named(dataset, defenseName string, labels ...string) (Case, error) {
	cfg, def, err := o.Federation(dataset, defenseName)
	return Case{Labels: labels, Cfg: cfg, Def: def}, err
}

// under is the case of one explicit defense, whose name decides the
// optimizer.
func (o Options) under(dataset string, def fl.Defense, label string) Case {
	return Case{Labels: []string{label}, Cfg: o.flConfig(dataset, fl.OptimizerFor(def.Name())), Def: def}
}

// fig5LayerSets returns the paper's nested layer sets for an n-layer model:
// {n-1}, {n-2, n-1}, ..., {1..n} in 1-based labels — the penultimate layer
// first, growing toward the full model.
func fig5LayerSets(n int) [][]int {
	sets := make([][]int, n)
	for size := 1; size <= n; size++ {
		set := make([]int, size)
		for i := range set {
			set[i] = max(n-1-size, 0) + i // 0-based
		}
		sets[size-1] = set
	}
	return sets
}

// setLabel names a layer set paper-style ("5", "4-5", ...), 1-based.
func setLabel(set []int) string {
	labels := make([]string, len(set))
	for i, l := range set {
		labels[i] = strconv.Itoa(l + 1)
	}
	return strings.Join(labels, "-")
}

// fig5Cases: DINAR with growing obfuscation sets — more layers buy no
// privacy beyond the most sensitive one, but cost utility.
func fig5Cases(o Options, ax Axes) ([]Case, error) {
	// The layer count comes from the federation's model, without training.
	m, err := o.flConfig(ax.Dataset, fl.OptimizerFor("dinar")).BuildModel()
	if err != nil {
		return nil, err
	}
	var cases []Case
	for _, set := range fig5LayerSets(m.NumLayers()) {
		cases = append(cases, o.under(ax.Dataset, core.NewWithLayers(o.Seed, set...), setLabel(set)))
	}
	return cases, nil
}

// fig6Cases: every defense on every dataset.
func fig6Cases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, ds := range ax.Datasets {
		for _, dname := range ax.Defenses {
			c, err := o.named(ds, dname, ds, dname)
			if err != nil {
				return nil, err
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// fig8Cases: Dirichlet α × defense (paper: GTSRB).
func fig8Cases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, alpha := range ax.Alphas {
		label := fmt.Sprint(alpha)
		if math.IsInf(alpha, 1) {
			label = "inf (IID)"
		}
		for _, dname := range ax.Defenses {
			c, err := o.named(ax.Dataset, dname, label, dname)
			if err != nil {
				return nil, err
			}
			c.Cfg.DirichletAlpha = alpha
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// fig9Cases: cohort size, DINAR against the undefended baseline.
func fig9Cases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, n := range ax.Clients {
		o.Clients = n
		for _, dname := range []string{"none", "dinar"} {
			c, err := o.named(ax.Dataset, dname, strconv.Itoa(n), dname)
			if err != nil {
				return nil, err
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// fig10Cases: LDP at each privacy budget, between no defense and DINAR.
func fig10Cases(o Options, ax Axes) ([]Case, error) {
	none, err := o.named(ax.Dataset, "none", "no defense")
	if err != nil {
		return nil, err
	}
	cases := []Case{none}
	cfg := o.flConfig(ax.Dataset, fl.OptimizerFor("ldp"))
	for _, eps := range ax.Budgets {
		cases = append(cases, Case{[]string{fmt.Sprintf("ldp eps=%v", eps)}, cfg, defense.NewLDPWithBudget(cfg.DefenseSeed(), eps)})
	}
	dinar, err := o.named(ax.Dataset, "dinar", "dinar")
	return append(cases, dinar), err
}

// fig11Cases: the §5.11 ablation — DINAR's defense over other optimizers,
// against full DINAR (Adagrad).
func fig11Cases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, opt := range ax.Optimizers {
		c, err := o.named(ax.Dataset, "dinar", opt)
		if err != nil {
			return nil, err
		}
		c.Cfg = o.flConfig(ax.Dataset, opt)
		cases = append(cases, c)
	}
	return cases, nil
}

// obfuscationCases compares DINAR's obfuscation distributions (DESIGN.md
// design choice 2): Gaussian draws matched to the layer's initializer versus
// uniform draws. The paper only specifies "random values"; the protection
// level is insensitive to the choice.
func obfuscationCases(o Options, ax Axes) ([]Case, error) {
	uniform := core.New(o.Seed)
	uniform.Mode = core.ObfuscateUniform
	return []Case{
		o.under(ax.Dataset, core.New(o.Seed), "gaussian (init-matched)"),
		o.under(ax.Dataset, uniform, "uniform"),
	}, nil
}

// robustCases compares DINAR under FedAvg against DINAR wrapped with
// Byzantine-robust aggregation (coordinate-wise median and trimmed mean) —
// extending the §4.1 Byzantine assumption from initialization to the
// learning rounds.
func robustCases(o Options, ax Axes) ([]Case, error) {
	trimmed := fl.NewRobust(core.New(o.Seed))
	trimmed.Rule = fl.RuleTrimmedMean
	trimmed.Trim = 1
	return []Case{
		o.under(ax.Dataset, core.New(o.Seed), "fedavg"),
		o.under(ax.Dataset, fl.NewRobust(core.New(o.Seed)), "median"),
		o.under(ax.Dataset, trimmed, "trimmed-mean(1)"),
	}, nil
}
