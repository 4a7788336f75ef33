package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/adversary"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// byzantineClients and byzantineF fix the experiment's cohort geometry: n=10
// participants of which f=3 are poisoned — the conventional "f of n"
// Byzantine setting, and large enough for the Krum family (n ≥ f+3).
const (
	byzantineClients = 10
	byzantineF       = 3
)

// ByzantineCell is one (attack, aggregator) outcome.
type ByzantineCell struct {
	// GlobalAccuracy is the final global model's test accuracy (%).
	GlobalAccuracy float64
	// Rejected, Quarantined and Clipped total the screen's verdicts across
	// all rounds of the run.
	Rejected    int
	Quarantined int
	Clipped     int
	// FiniteGlobal reports whether every coordinate of the final global
	// state is finite (no NaN/Inf reached aggregation).
	FiniteGlobal bool
}

// ByzantineResult is the attack × aggregator robustness matrix.
type ByzantineResult struct {
	Dataset     string
	Clients     int
	F           int
	Aggregators []string
	// Attacks lists the row labels in order; "benign" is the no-adversary
	// baseline row.
	Attacks []string
	// Cells maps attack label → aggregator → outcome.
	Cells map[string]map[string]ByzantineCell
}

// Baseline returns the no-adversary accuracy for an aggregator.
func (r *ByzantineResult) Baseline(aggregator string) float64 {
	return r.Cells["benign"][aggregator].GlobalAccuracy
}

// Table renders the matrix: one row per attack, one accuracy column per
// aggregator.
func (r *ByzantineResult) Table() *metrics.Table {
	headers := make([]string, 0, len(r.Aggregators)+1)
	headers = append(headers, "Attack (f=3 of 10)")
	for _, a := range r.Aggregators {
		headers = append(headers, a+" acc (%)")
	}
	t := metrics.NewTable("Byzantine robustness — "+r.Dataset, headers...)
	for _, atk := range r.Attacks {
		row := make([]interface{}, 0, len(headers))
		row = append(row, atk)
		for _, a := range r.Aggregators {
			row = append(row, r.Cells[atk][a].GlobalAccuracy)
		}
		t.AddRow(row...)
	}
	return t
}

// Byzantine runs the robustness matrix: every attack strategy against every
// aggregation rule, with the update screen at its default configuration, plus
// a benign baseline row. Nil attacks/aggregators select the full matrix.
func Byzantine(ctx context.Context, o Options, dataset string, attacks []adversary.Kind, aggregators []string) (*ByzantineResult, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	if attacks == nil {
		attacks = adversary.Kinds()
	}
	if aggregators == nil {
		aggregators = []string{"fedavg", "krum", "multi-krum", "norm-bound"}
	}
	res := &ByzantineResult{
		Dataset:     dataset,
		Clients:     byzantineClients,
		F:           byzantineF,
		Aggregators: aggregators,
		Cells:       make(map[string]map[string]ByzantineCell),
	}
	addRow := func(label string, schedule adversary.Schedule) error {
		res.Attacks = append(res.Attacks, label)
		res.Cells[label] = make(map[string]ByzantineCell, len(aggregators))
		for _, agg := range aggregators {
			cell, err := runByzantine(ctx, o, dataset, agg, schedule)
			if err != nil {
				return fmt.Errorf("experiment: byzantine %s/%s: %w", label, agg, err)
			}
			res.Cells[label][agg] = *cell
		}
		return nil
	}
	if err := addRow("benign", adversary.None); err != nil {
		return nil, err
	}
	for _, kind := range attacks {
		schedule := adversary.FirstF(byzantineF, adversary.Plan{Kind: kind})
		if err := addRow(kind.String(), schedule); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runByzantine executes one cell: an undefended federation whose first f
// clients follow schedule, aggregated by the named rule behind the default
// update screen, evaluated by the global model's test accuracy.
func runByzantine(ctx context.Context, o Options, dataset, aggregator string, schedule adversary.Schedule) (*ByzantineCell, error) {
	o.Clients = byzantineClients
	cfg, def, err := o.Federation(dataset, "none")
	if err != nil {
		return nil, err
	}
	cfg.Aggregator = aggregator
	cfg.MaxByzantine = byzantineF
	run, err := RunFL(ctx, cfg, adversary.Wrap(def, o.Seed+13, schedule))
	if err != nil {
		return nil, err
	}
	state := run.Sys.Server.GlobalState()
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	cell := &ByzantineCell{FiniteGlobal: !slices.ContainsFunc(state, nonFinite)}
	m, err := ModelFromState(run.Sys.Spec(), state, 997)
	if err != nil {
		return nil, err
	}
	acc, _, err := fl.EvaluateModel(m, run.Sys.Split.Test, run.Sys.Config.BatchSize)
	if err != nil {
		return nil, err
	}
	cell.GlobalAccuracy = pct(acc)
	for _, rep := range run.Sys.Server.ScreenReports() {
		cell.Rejected += len(rep.Rejected)
		cell.Quarantined += len(rep.Quarantined)
		cell.Clipped += len(rep.Clipped)
	}
	return cell, nil
}
