package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// Metric names one number a reading measures.
type Metric int

const (
	// MetricGlobalAUC and MetricLocalAUC are attack AUCs (%) against the
	// global model and the clients' uploaded models (§5, Appendix A).
	MetricGlobalAUC Metric = iota
	MetricLocalAUC
	// MetricAccuracy is the mean personalized-model test accuracy (%).
	MetricAccuracy
	// MetricJS is a Jensen–Shannon divergence between members and
	// non-members: of one layer's gradients (Fig 1, Fig 4a) or of the losses
	// (Fig 3).
	MetricJS
	// MetricMostSensitive is 1 on the layer of largest divergence, the one
	// each client votes for (§4.1).
	MetricMostSensitive
	// MetricObfuscatedAUC is the local attack AUC (%) with this layer alone
	// obfuscated (Fig 4b).
	MetricObfuscatedAUC
	// MetricMemberLoss and MetricNonMemberLoss are mean per-sample losses of
	// the broadcast model (Fig 3).
	MetricMemberLoss
	MetricNonMemberLoss
	// MetricClientTrain and MetricServerAgg are mean per-round durations in
	// nanoseconds, printed as durations (Table 3).
	MetricClientTrain
	MetricServerAgg
	// MetricDefenseKiB is the defense-attributed buffer memory;
	// MetricPeakTrainMiB and MetricPeakAggMiB the heap-in-use peaks sampled
	// during client training and server aggregation. The peaks are
	// process-global (see metrics.CostMeter): upper bounds per phase, not
	// per-client figures (Table 3).
	MetricDefenseKiB
	MetricPeakTrainMiB
	MetricPeakAggMiB
	// MetricGlobalAccuracy is the final global model's test accuracy (%).
	MetricGlobalAccuracy
	// MetricRejected, MetricQuarantined and MetricClipped total the update
	// screen's verdicts across all rounds.
	MetricRejected
	MetricQuarantined
	MetricClipped
	// MetricFinite is 1 when every coordinate of the final global state is
	// finite: no NaN or Inf reached aggregation.
	MetricFinite
)

// Column is one printed metric column of a sweep.
type Column struct {
	Header string
	Metric Metric
	// Mark, when set, is printed where the metric is nonzero, and nothing
	// elsewhere.
	Mark string
	// Overhead prints the metric as its overhead (%) over the row labelled
	// "none", the undefended baseline.
	Overhead bool
}

var (
	attackAUC = Column{Header: "Attack AUC (%)", Metric: MetricLocalAUC}
	accuracy  = Column{Header: "Model accuracy (%)", Metric: MetricAccuracy}
)

// Axes are the values a sweep runs along; a sweep reads only the fields it
// varies, and Sweep.Paper holds the paper's.
type Axes struct {
	Dataset     string           // every sweep but Fig 1, Fig 6/7
	Datasets    []string         // Fig 1, Fig 6/7
	Defenses    []string         // Fig 3, Fig 6/7, Table 3, Fig 8
	Alphas      []float64        // Fig 8: Dirichlet concentrations, +Inf = IID
	Clients     []int            // Fig 9
	Budgets     []float64        // Fig 10: LDP ε
	Optimizers  []string         // Fig 11
	Attacks     []adversary.Kind // byzantine, after the benign baseline
	Aggregators []string         // byzantine
}

// Case is one federation of a sweep: what its row is called, and what runs.
type Case struct {
	Labels []string
	Cfg    fl.Config
	Def    fl.Defense
}

// Row is one printed line: its label cells, and what the reading measured,
// of which the sweep's columns print some.
type Row struct {
	Labels []string
	Values map[Metric]float64
}

// Sweep is one artifact of the evaluation as data: a reading of one
// federation re-run along the artifact's axes.
type Sweep struct {
	ID string
	// Title heads the table; "{dataset}" stands for Axes.Dataset and
	// "{value}" for the first row's TitleValue, to one decimal.
	Title      string
	TitleValue Metric
	// Labels are the headers of the label columns, Columns the metrics
	// printed after them.
	Labels  []string
	Columns []Column
	// Pivot spreads the last label into columns: one copy of Columns per
	// value of it, each header prefixed by the value.
	Pivot bool
	// Paper is the axes the paper ran, and the registry runs.
	Paper Axes
	// Cases lists the federations in row order.
	Cases func(o Options, ax Axes) ([]Case, error)
	// Read measures one finished case into rows of len(Labels) labels; nil
	// reads Options.Measure into one row under the case's labels.
	Read func(o Options, c Case, run *FLRun) ([]Row, error)
	// LossAttack pins the loss-threshold attacker at every scale.
	LossAttack bool
	// Memo, when set, keeps the measured rows under this name: sweeps that
	// name the same memo and build the same cases (Fig 6 and Fig 7) are two
	// readings of one set of federations, trained once.
	Memo string
}

// Sweeps are Figures 1 and 3–11, Table 3, the two ablations and the
// Byzantine matrix.
var Sweeps = []Sweep{{
	ID:     "fig1",
	Title:  "Figure 1: per-layer JS divergence, member vs non-member gradients (no defense)",
	Labels: []string{"Dataset", "Layer"},
	Columns: []Column{{Header: "JS divergence", Metric: MetricJS},
		{Header: "Most sensitive", Metric: MetricMostSensitive, Mark: "<== obfuscation target"}},
	Paper: Axes{Datasets: []string{"gtsrb", "celeba", "texas100", "purchase100"}},
	Cases: fig1Cases,
	Read:  readLeakage,
}, {
	ID:     "fig3",
	Title:  "Figure 3: member vs non-member loss distributions — {dataset}",
	Labels: []string{"Defense"},
	Columns: []Column{{Header: "Mean loss (members)", Metric: MetricMemberLoss},
		{Header: "Mean loss (non-members)", Metric: MetricNonMemberLoss},
		{Header: "JS(member‖non-member)", Metric: MetricJS}},
	Paper: Axes{Dataset: "cifar10", Defenses: []string{"none", "ldp", "cdp", "wdp", "dinar"}},
	Cases: defenseCases,
	Read:  readLosses,
}, {
	ID:         "fig4",
	Title:      "Figure 4: per-layer analysis — {dataset} (no-defense local AUC {value}%)",
	TitleValue: MetricLocalAUC,
	Labels:     []string{"Layer"},
	Columns: []Column{{Header: "(a) JS divergence", Metric: MetricJS},
		{Header: "(b) attack AUC if obfuscated (%)", Metric: MetricObfuscatedAUC}},
	Paper: Axes{Dataset: "celeba"},
	Cases: fig4Cases,
	Read:  readLayerProtection,
}, {
	ID:         "fig5",
	Title:      "Figure 5: obfuscating more layers — {dataset}",
	Labels:     []string{"Obfuscated layers"},
	Columns:    []Column{attackAUC, accuracy},
	Paper:      Axes{Dataset: "purchase100"},
	Cases:      fig5Cases,
	LossAttack: true,
}, {
	ID:     "fig6",
	Title:  "Figure 6: attack AUC (%) per dataset and defense — optimum is 50%",
	Labels: []string{"Dataset", "Defense"},
	Columns: []Column{{Header: "Global model AUC", Metric: MetricGlobalAUC},
		{Header: "Local models AUC", Metric: MetricLocalAUC}},
	Paper: fig6Axes,
	Cases: fig6Cases,
	Memo:  "fig6",
}, {
	ID:      "fig7",
	Title:   "Figure 7: privacy vs utility trade-off (local models) — best is bottom-right",
	Labels:  []string{"Dataset", "Defense"},
	Columns: []Column{accuracy, attackAUC},
	Paper:   fig6Axes,
	Cases:   fig6Cases,
	Memo:    "fig6",
}, {
	ID:     "table3",
	Title:  "Table 3: overhead of FL defense mechanisms vs baseline — {dataset}",
	Labels: []string{"Defense"},
	Columns: []Column{{Header: "Client train/round", Metric: MetricClientTrain},
		{Header: "Train overhead (%)", Metric: MetricClientTrain, Overhead: true},
		{Header: "Server agg", Metric: MetricServerAgg},
		{Header: "Agg overhead (%)", Metric: MetricServerAgg, Overhead: true},
		{Header: "Defense buffers (KiB)", Metric: MetricDefenseKiB},
		{Header: "Peak train heap (MiB)", Metric: MetricPeakTrainMiB},
		{Header: "Peak agg heap (MiB)", Metric: MetricPeakAggMiB}},
	Paper: Axes{Dataset: "gtsrb", Defenses: []string{"none", "wdp", "ldp", "cdp", "gc", "sa", "dinar"}},
	Cases: defenseCases,
	Read:  readCosts,
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
}, {
	// Beyond the paper: every seeded poisoning strategy against every
	// aggregation rule, behind the default update screen.
	ID:      "byzantine",
	Title:   "Byzantine robustness — {dataset}",
	Labels:  []string{"Attack (f=3 of 10)", "Aggregator"},
	Columns: []Column{{Header: "acc (%)", Metric: MetricGlobalAccuracy}},
	Pivot:   true,
	Paper: Axes{Dataset: "purchase100", Attacks: adversary.Kinds(),
		Aggregators: []string{"fedavg", "krum", "multi-krum", "norm-bound"}},
	Cases: byzantineCases,
	Read:  readByzantine,
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

// Series is the metric of every row, in row order.
func (r *SweepResult) Series(m Metric) []float64 {
	vs := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		vs[i] = row.Values[m]
	}
	return vs
}

// sweepMemo holds the rows of sweeps that name a Memo.
var sweepMemo sync.Map // sweepKey -> []Row

type sweepKey struct {
	o    Options
	memo string
	axes string // fmt.Sprint of the Axes
}

// RunSweep trains and reads, in order, every case the sweep with the given
// ID has along ax.
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
	read := s.Read
	if read == nil {
		read = measured
	}
	for i, c := range cases {
		cases[i] = Case{} // a finished case's bound defense is garbage
		run, err := RunFL(ctx, c.Cfg, c.Def)
		if err != nil {
			return nil, err
		}
		rows, err := read(o, c, run)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s %s: %w", id, strings.Join(c.Labels, "/"), err)
		}
		for _, row := range rows {
			if len(row.Labels) != len(s.Labels) {
				return nil, fmt.Errorf("experiment: %s read labels %q under headers %q", id, row.Labels, s.Labels)
			}
		}
		res.Rows = append(res.Rows, rows...)
	}
	if s.Memo != "" {
		sweepMemo.Store(key, res.Rows)
	}
	return res, nil
}

// measured is the reading of every privacy/utility figure: Options.Measure.
func measured(o Options, c Case, run *FLRun) ([]Row, error) {
	v, err := o.Measure(run)
	return []Row{{Labels: c.Labels, Values: v}}, err
}

// Table renders the rows: the label cells, then the sweep's metric columns —
// once per value of the last label when the sweep pivots.
func (r *SweepResult) Table() *metrics.Table {
	s := r.Sweep
	labels, pivots := s.Labels, []string{""}
	if s.Pivot {
		labels, pivots = labels[:len(labels)-1], nil
		for _, row := range r.Rows {
			if p := row.Labels[len(labels)]; !slices.Contains(pivots, p) {
				pivots = append(pivots, p)
			}
		}
	}
	headers := slices.Clone(labels)
	for _, p := range pivots {
		for _, c := range s.Columns {
			headers = append(headers, strings.TrimSpace(p+" "+c.Header))
		}
	}
	var first Row
	if len(r.Rows) > 0 {
		first = r.Rows[0]
	}
	title := strings.NewReplacer("{dataset}", r.Axes.Dataset,
		"{value}", fmt.Sprintf("%.1f", first.Values[s.TitleValue])).Replace(s.Title)
	t := metrics.NewTable(title, headers...)

	var lines [][]interface{}
	line := map[string]int{} // pivot: the label cells -> index into lines
	for _, row := range r.Rows {
		at, col := len(lines), len(labels)
		if s.Pivot {
			key := strings.Join(row.Labels[:len(labels)], "\x00")
			if i, ok := line[key]; ok {
				at = i
			}
			line[key] = at
			col += slices.Index(pivots, row.Labels[len(labels)]) * len(s.Columns)
		}
		if at == len(lines) {
			cells := make([]interface{}, len(headers))
			for i := range cells {
				cells[i] = ""
			}
			for i, l := range row.Labels[:len(labels)] {
				cells[i] = l
			}
			lines = append(lines, cells)
		}
		for j, c := range s.Columns {
			lines[at][col+j] = r.cell(row, c)
		}
	}
	for _, cells := range lines {
		t.AddRow(cells...)
	}
	return t
}

// cell is what column c prints for row.
func (r *SweepResult) cell(row Row, c Column) interface{} {
	v := row.Values[c.Metric]
	switch {
	case c.Mark != "":
		if v == 0 {
			return ""
		}
		return c.Mark
	case c.Overhead:
		i := slices.IndexFunc(r.Rows, func(b Row) bool { return b.Labels[0] == "none" })
		if i < 0 {
			return 0.0
		}
		return metrics.Overhead(time.Duration(v), time.Duration(r.Rows[i].Values[c.Metric]))
	case c.Metric == MetricClientTrain || c.Metric == MetricServerAgg:
		return time.Duration(v).Round(time.Microsecond)
	}
	return v
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
