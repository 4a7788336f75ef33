package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Runner regenerates one paper artifact and returns its printable table.
type Runner func(ctx context.Context, o Options) (*metrics.Table, error)

// Artifact is one registered experiment: a table/figure number and what
// regenerates it.
type Artifact struct {
	ID  string
	Run Runner
}

// Registry lists every experiment — each row of DESIGN.md's per-experiment
// index: the static Table 1, then every entry of Sweeps along the paper's
// axes.
var Registry = func() []Artifact {
	reg := []Artifact{{"table1", func(context.Context, Options) (*metrics.Table, error) { return Table1Table(), nil }}}
	for _, s := range Sweeps {
		reg = append(reg, Artifact{s.ID, func(ctx context.Context, o Options) (*metrics.Table, error) {
			res, err := RunSweep(ctx, s.ID, o, s.Paper)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}})
	}
	sort.Slice(reg, func(i, j int) bool { return reg[i].ID < reg[j].ID })
	return reg
}()

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, a := range Registry {
		ids[i] = a.ID
	}
	return ids
}

// Run executes the experiment with the given ID.
func Run(ctx context.Context, id string, o Options) (*metrics.Table, error) {
	for _, a := range Registry {
		if a.ID == id {
			return a.Run(ctx, o)
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
}
