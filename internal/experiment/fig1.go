package experiment

import (
	"context"

	"repro/internal/leakage"
	"repro/internal/metrics"
)

// Fig1Datasets are the four datasets of the paper's Figure 1.
var Fig1Datasets = []string{"gtsrb", "celeba", "texas100", "purchase100"}

// Fig1Series holds one dataset's per-layer divergence curve.
type Fig1Series struct {
	Dataset     string
	Divergences []float64
	// MostSensitive is the argmax layer (each client's §4.1 vote).
	MostSensitive int
}

// Fig1Result reproduces Figure 1: the layer-level Jensen–Shannon divergence
// between member and non-member gradients of unprotected FL models.
type Fig1Result struct {
	Series []Fig1Series
}

// Fig1 trains an undefended FL model per dataset and measures per-layer
// membership leakage of the resulting global model.
func Fig1(ctx context.Context, o Options, datasets ...string) (*Fig1Result, error) {
	if len(datasets) == 0 {
		datasets = Fig1Datasets
	}
	res := &Fig1Result{}
	for _, ds := range datasets {
		run, err := o.RunNamed(ctx, ds, "none")
		if err != nil {
			return nil, err
		}
		m, err := ModelFromState(run.Sys.Spec(), run.Sys.Server.GlobalState(), 97)
		if err != nil {
			return nil, err
		}
		analyzer := leakage.NewAnalyzer()
		div, err := analyzer.LayerDivergence(m, run.Sys.Split.Train, run.Sys.Split.Test)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig1Series{
			Dataset:       ds,
			Divergences:   div,
			MostSensitive: leakage.MostSensitiveLayer(div),
		})
	}
	return res, nil
}

// Table renders the figure's series as rows.
func (r *Fig1Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 1: per-layer JS divergence, member vs non-member gradients (no defense)",
		"Dataset", "Layer", "JS divergence", "Most sensitive")
	for _, s := range r.Series {
		for l, d := range s.Divergences {
			mark := ""
			if l == s.MostSensitive {
				mark = "<== obfuscation target"
			}
			t.AddRow(s.Dataset, l, d, mark)
		}
	}
	return t
}
