package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// AblationPoint is one configuration's privacy/utility outcome.
type AblationPoint struct {
	Label    string
	LocalAUC float64 // %
	Accuracy float64 // %
}

// AblationResult holds an ablation sweep.
type AblationResult struct {
	Title   string
	Dataset string
	Points  []AblationPoint
}

// Table renders the ablation.
func (r *AblationResult) Table() *metrics.Table {
	t := metrics.NewTable(r.Title+" — "+r.Dataset, "Variant", "Attack AUC (%)", "Model accuracy (%)")
	for _, p := range r.Points {
		t.AddRow(p.Label, p.LocalAUC, p.Accuracy)
	}
	return t
}

// AblationObfuscation compares DINAR's obfuscation distributions (DESIGN.md
// design choice 2): Gaussian draws matched to the layer's initializer versus
// uniform draws. The paper only specifies "random values"; this ablation
// shows the protection level is insensitive to the distribution choice.
func AblationObfuscation(ctx context.Context, o Options, dataset string) (*AblationResult, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	res := &AblationResult{Title: "Ablation: obfuscation distribution", Dataset: dataset}
	modes := []struct {
		label string
		mode  core.ObfuscationMode
	}{
		{"gaussian (init-matched)", core.ObfuscateGaussian},
		{"uniform", core.ObfuscateUniform},
	}
	for _, m := range modes {
		def := core.New(o.Seed)
		def.Mode = m.mode
		point, err := evaluateWithDefense(ctx, o, dataset, def)
		if err != nil {
			return nil, err
		}
		point.Label = m.label
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

// AblationRobust compares DINAR under FedAvg against DINAR wrapped with
// Byzantine-robust aggregation (coordinate-wise median and trimmed mean) —
// extending the §4.1 Byzantine assumption from initialization to the
// learning rounds.
func AblationRobust(ctx context.Context, o Options, dataset string) (*AblationResult, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	res := &AblationResult{Title: "Ablation: robust aggregation under DINAR", Dataset: dataset}

	fedavg := core.New(o.Seed)
	point, err := evaluateWithDefense(ctx, o, dataset, fedavg)
	if err != nil {
		return nil, err
	}
	point.Label = "fedavg"
	res.Points = append(res.Points, *point)

	median := fl.NewRobust(core.New(o.Seed))
	point, err = evaluateWithDefense(ctx, o, dataset, median)
	if err != nil {
		return nil, err
	}
	point.Label = "median"
	res.Points = append(res.Points, *point)

	trimmed := fl.NewRobust(core.New(o.Seed))
	trimmed.Rule = fl.RuleTrimmedMean
	trimmed.Trim = 1
	point, err = evaluateWithDefense(ctx, o, dataset, trimmed)
	if err != nil {
		return nil, err
	}
	point.Label = "trimmed-mean(1)"
	res.Points = append(res.Points, *point)
	return res, nil
}

// evaluateWithDefense runs Options' federation under one explicit defense,
// whose name decides the optimizer, and measures it.
func evaluateWithDefense(ctx context.Context, o Options, dataset string, def fl.Defense) (*AblationPoint, error) {
	cell, err := evaluate(ctx, o, o.flConfig(dataset, fl.OptimizerFor(def.Name())), def)
	if err != nil {
		return nil, err
	}
	return &AblationPoint{LocalAUC: cell.LocalAUC, Accuracy: cell.Accuracy}, nil
}
