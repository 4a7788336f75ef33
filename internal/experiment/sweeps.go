package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// Fig8Alphas are the Dirichlet concentrations of the paper's Figure 8
// (α = ∞ is the IID case).
var Fig8Alphas = []float64{0.8, 2, 5, math.Inf(1)}

// Fig8Defenses are the defenses of the paper's Figure 8.
var Fig8Defenses = []string{"none", "wdp", "cdp", "ldp", "dinar"}

// Fig8Point is one (α, defense) outcome.
type Fig8Point struct {
	Alpha    float64
	Defense  string
	LocalAUC float64 // %
	Accuracy float64 // %
}

// Fig8Result reproduces Figure 8 (privacy leakage vs utility under non-IID
// settings, GTSRB).
type Fig8Result struct {
	Dataset string
	Points  []Fig8Point
}

// Fig8 sweeps Dirichlet α and defenses on the dataset (paper: GTSRB).
func Fig8(ctx context.Context, o Options, dataset string, alphas []float64, defenses []string) (*Fig8Result, error) {
	if dataset == "" {
		dataset = "gtsrb"
	}
	if len(alphas) == 0 {
		alphas = Fig8Alphas
	}
	if len(defenses) == 0 {
		defenses = Fig8Defenses
	}
	res := &Fig8Result{Dataset: dataset}
	for _, alpha := range alphas {
		for _, dname := range defenses {
			cfg, def, err := o.Federation(dataset, dname)
			if err != nil {
				return nil, err
			}
			cfg.DirichletAlpha = alpha
			cell, err := evaluate(ctx, o, cfg, def)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig8Point{
				Alpha:    alpha,
				Defense:  dname,
				LocalAUC: cell.LocalAUC,
				Accuracy: cell.Accuracy,
			})
		}
	}
	return res, nil
}

// Table renders the non-IID sweep.
func (r *Fig8Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 8: privacy vs utility under non-IID settings — "+r.Dataset,
		"Dirichlet alpha", "Defense", "Attack AUC (%)", "Model accuracy (%)")
	for _, p := range r.Points {
		alpha := fmt.Sprintf("%v", p.Alpha)
		if math.IsInf(p.Alpha, 1) {
			alpha = "inf (IID)"
		}
		t.AddRow(alpha, p.Defense, p.LocalAUC, p.Accuracy)
	}
	return t
}

// Fig9Clients are the federation sizes of the paper's Figure 9.
var Fig9Clients = []int{5, 10, 20, 40}

// Fig9Point is one (clients, defense) outcome.
type Fig9Point struct {
	Clients  int
	Defense  string
	LocalAUC float64 // %
	Accuracy float64 // %
}

// Fig9Result reproduces Figure 9 (model privacy and utility under different
// numbers of FL clients, Purchase100, DINAR vs no defense).
type Fig9Result struct {
	Dataset string
	Points  []Fig9Point
}

// Fig9 sweeps the number of clients for DINAR and the no-defense baseline.
func Fig9(ctx context.Context, o Options, dataset string, clientCounts []int) (*Fig9Result, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	if len(clientCounts) == 0 {
		clientCounts = Fig9Clients
	}
	res := &Fig9Result{Dataset: dataset}
	for _, n := range clientCounts {
		for _, dname := range []string{"none", "dinar"} {
			oc := o
			oc.Clients = n
			cell, err := evaluateDefense(ctx, oc, dataset, dname)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig9Point{
				Clients:  n,
				Defense:  dname,
				LocalAUC: cell.LocalAUC,
				Accuracy: cell.Accuracy,
			})
		}
	}
	return res, nil
}

// Table renders the client-count sweep.
func (r *Fig9Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 9: privacy and utility vs number of FL clients — "+r.Dataset,
		"Clients", "Defense", "Attack AUC (%)", "Model accuracy (%)")
	for _, p := range r.Points {
		t.AddRow(p.Clients, p.Defense, p.LocalAUC, p.Accuracy)
	}
	return t
}

// Fig10Budgets are the LDP privacy budgets of the paper's Figure 10.
var Fig10Budgets = []float64{0.05, 0.2, 1, 2.2}

// Fig10Point is one budget's outcome.
type Fig10Point struct {
	// Label identifies the configuration ("no defense", "ldp eps=…",
	// "dinar").
	Label    string
	LocalAUC float64 // %
	Accuracy float64 // %
}

// Fig10Result reproduces Figure 10 (privacy leakage vs utility for LDP under
// different privacy budgets, Purchase100, vs DINAR and no defense).
type Fig10Result struct {
	Dataset string
	Points  []Fig10Point
}

// Fig10 sweeps LDP budgets and compares with DINAR and no defense.
func Fig10(ctx context.Context, o Options, dataset string, budgets []float64) (*Fig10Result, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	if len(budgets) == 0 {
		budgets = Fig10Budgets
	}
	res := &Fig10Result{Dataset: dataset}

	record := func(label string, cfg fl.Config, def fl.Defense) error {
		cell, err := evaluate(ctx, o, cfg, def)
		if err != nil {
			return err
		}
		res.Points = append(res.Points, Fig10Point{Label: label, LocalAUC: cell.LocalAUC, Accuracy: cell.Accuracy})
		return nil
	}

	cfg, def, err := o.Federation(dataset, "none")
	if err != nil {
		return nil, err
	}
	if err := record("no defense", cfg, def); err != nil {
		return nil, err
	}
	cfg = o.flConfig(dataset, fl.OptimizerFor("ldp"))
	for _, eps := range budgets {
		if err := record(fmt.Sprintf("ldp eps=%v", eps), cfg, defense.NewLDPWithBudget(cfg.DefenseSeed(), eps)); err != nil {
			return nil, err
		}
	}
	if cfg, def, err = o.Federation(dataset, "dinar"); err != nil {
		return nil, err
	}
	if err := record("dinar", cfg, def); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the budget sweep.
func (r *Fig10Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 10: LDP privacy budgets vs DINAR — "+r.Dataset,
		"Configuration", "Attack AUC (%)", "Model accuracy (%)")
	for _, p := range r.Points {
		t.AddRow(p.Label, p.LocalAUC, p.Accuracy)
	}
	return t
}

// Fig11Optimizers are the §5.11 ablation variants: DINAR without adaptive
// training, using other optimizers, versus full DINAR (Adagrad).
var Fig11Optimizers = []string{"adam", "adgd", "adamax", "adagrad"}

// Fig11Point is one optimizer variant's outcome.
type Fig11Point struct {
	Optimizer string
	Accuracy  float64 // %
	LocalAUC  float64 // %
}

// Fig11Result reproduces Figure 11 (ablation of DINAR's adaptive training).
type Fig11Result struct {
	Dataset string
	Points  []Fig11Point
}

// Fig11 runs DINAR with each optimizer variant (paper: Purchase100).
func Fig11(ctx context.Context, o Options, dataset string, optimizers []string) (*Fig11Result, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	if len(optimizers) == 0 {
		optimizers = Fig11Optimizers
	}
	res := &Fig11Result{Dataset: dataset}
	for _, opt := range optimizers {
		_, def, err := o.Federation(dataset, "dinar")
		if err != nil {
			return nil, err
		}
		cell, err := evaluate(ctx, o, o.flConfig(dataset, opt), def)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig11Point{Optimizer: opt, Accuracy: cell.Accuracy, LocalAUC: cell.LocalAUC})
	}
	return res, nil
}

// Table renders the ablation.
func (r *Fig11Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 11: DINAR optimizer ablation — "+r.Dataset+" (adagrad = full DINAR)",
		"Optimizer", "Model accuracy (%)", "Attack AUC (%)")
	for _, p := range r.Points {
		t.AddRow(p.Optimizer, p.Accuracy, p.LocalAUC)
	}
	return t
}
