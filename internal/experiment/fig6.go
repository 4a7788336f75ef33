package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/defense"
	"repro/internal/metrics"
)

// fig6Cache memoizes full Fig6 sweeps: Figure 7 is a different projection of
// exactly the same runs, so `-exp all` pays for the sweep once.
var fig6Cache sync.Map // string -> *Fig6Result

// Fig6Datasets are the six datasets of the paper's Figure 6, in its order.
var Fig6Datasets = []string{"purchase100", "cifar10", "cifar100", "speechcommands", "celeba", "gtsrb"}

// PrivacyCell is one defense's privacy/utility outcome on one dataset.
type PrivacyCell struct {
	Defense string
	// GlobalAUC and LocalAUC are attack AUCs (%) against the global model
	// and the clients' uploaded models.
	GlobalAUC, LocalAUC float64
	// Accuracy is the mean personalized-model test accuracy (%) — used by
	// Figure 7's privacy/utility scatter.
	Accuracy float64
}

// Fig6Result reproduces Figure 6 (attack AUC across defenses and datasets,
// global and local models) and doubles as the data source for Figure 7.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6Row is one dataset's sweep over all defenses.
type Fig6Row struct {
	Dataset string
	Cells   []PrivacyCell
}

// Fig6 sweeps the full defense suite over the given datasets.
func Fig6(ctx context.Context, o Options, datasets []string, defenses []string) (*Fig6Result, error) {
	if len(datasets) == 0 {
		datasets = Fig6Datasets
	}
	if len(defenses) == 0 {
		defenses = defense.StandardNames
	}
	key := fmt.Sprintf("%+v|%v|%v", o, datasets, defenses)
	if cached, ok := fig6Cache.Load(key); ok {
		return cached.(*Fig6Result), nil
	}
	res := &Fig6Result{}
	for _, ds := range datasets {
		row := Fig6Row{Dataset: ds}
		for _, dname := range defenses {
			cell, err := evaluateDefense(ctx, o, ds, dname)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, *cell)
		}
		res.Rows = append(res.Rows, row)
	}
	fig6Cache.Store(key, res)
	return res, nil
}

// evaluateDefense runs one (dataset, defense) configuration and measures
// global AUC, local AUC, and utility.
func evaluateDefense(ctx context.Context, o Options, dataset, defenseName string) (*PrivacyCell, error) {
	cfg, def, err := o.Federation(dataset, defenseName)
	if err != nil {
		return nil, err
	}
	return evaluate(ctx, o, cfg, def)
}

// Table renders the privacy matrix (Fig. 6's bar heights).
func (r *Fig6Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 6: attack AUC (%) per dataset and defense — optimum is 50%",
		"Dataset", "Defense", "Global model AUC", "Local models AUC")
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			t.AddRow(row.Dataset, c.Defense, c.GlobalAUC, c.LocalAUC)
		}
	}
	return t
}

// Fig7Table renders the same runs as Figure 7's privacy-vs-utility scatter
// (local models): one (accuracy, AUC) point per defense per dataset.
func (r *Fig6Result) Fig7Table() *metrics.Table {
	t := metrics.NewTable("Figure 7: privacy vs utility trade-off (local models) — best is bottom-right",
		"Dataset", "Defense", "Model accuracy (%)", "Attack AUC (%)")
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			t.AddRow(row.Dataset, c.Defense, c.Accuracy, c.LocalAUC)
		}
	}
	return t
}
