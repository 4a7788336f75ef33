package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/leakage"
	"repro/internal/metrics"
)

// Fig4Result reproduces Figure 4 (CelebA, VGG11 with 8 convolutional
// layers): (a) how much each layer separates members from non-members, and
// (b) the local-model attack AUC when a fine-grained protection obfuscates
// exactly one layer.
type Fig4Result struct {
	Dataset string
	// Divergences is Fig. 4a: per-layer member/non-member divergence.
	Divergences []float64
	// PerLayerAUC is Fig. 4b: attack AUC (%) on local models when layer i
	// alone is obfuscated.
	PerLayerAUC []float64
	// BaselineAUC is the unprotected local-model attack AUC (%).
	BaselineAUC float64
	// MostSensitive is the argmax of Divergences.
	MostSensitive int
}

// Fig4 trains an undefended system once, then sweeps single-layer
// obfuscation over the final uploads and re-attacks each variant.
func Fig4(ctx context.Context, o Options, dataset string) (*Fig4Result, error) {
	if dataset == "" {
		dataset = "celeba"
	}
	cfg, def, err := o.Federation(dataset, "none")
	if err != nil {
		return nil, err
	}
	run, err := RunFL(ctx, cfg, def)
	if err != nil {
		return nil, err
	}
	spec := run.Sys.Spec()
	atk := attack.NewLossAttack()

	globalModel, err := ModelFromState(spec, run.Sys.Server.GlobalState(), 41)
	if err != nil {
		return nil, err
	}
	div, err := leakage.NewAnalyzer().LayerDivergence(globalModel, run.Sys.Split.Train, run.Sys.Split.Test)
	if err != nil {
		return nil, err
	}

	baseline, err := LocalAUC(run, atk)
	if err != nil {
		return nil, err
	}

	info := globalModel.Spans()
	perLayer := make([]float64, len(info))
	for l := range info {
		sum := 0.0
		for i, u := range run.Updates {
			state := append([]float64(nil), u.State...)
			rng := rand.New(rand.NewSource(o.Seed + int64(l*100+i)))
			if err := core.Obfuscate(state, info[l], core.ObfuscateGaussian, rng); err != nil {
				return nil, fmt.Errorf("experiment: fig4 layer %d: %w", l, err)
			}
			m, err := ModelFromState(spec, state, 42)
			if err != nil {
				return nil, err
			}
			auc, err := atk.AUC(m, run.Sys.Shards[i], run.Sys.Split.Test)
			if err != nil {
				return nil, err
			}
			sum += auc
		}
		perLayer[l] = pct(sum / float64(len(run.Updates)))
	}
	return &Fig4Result{
		Dataset:       dataset,
		Divergences:   div,
		PerLayerAUC:   perLayer,
		BaselineAUC:   pct(baseline),
		MostSensitive: leakage.MostSensitiveLayer(div),
	}, nil
}

// Table renders both panels of the figure.
func (r *Fig4Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 4: per-layer analysis — %s (no-defense local AUC %.1f%%)", r.Dataset, r.BaselineAUC),
		"Layer", "(a) JS divergence", "(b) attack AUC if obfuscated (%)")
	for l := range r.Divergences {
		t.AddRow(l, r.Divergences[l], r.PerLayerAUC[l])
	}
	return t
}

// Fig5Result reproduces Figure 5 (Purchase100, 6-layer FCNN): obfuscating
// more layers does not improve privacy beyond the single most sensitive
// layer, but costs utility.
type Fig5Result struct {
	Dataset string
	// Sets names the obfuscated layer sets, paper-style ("5", "4-5", ...).
	Sets []string
	// AUC is the local-model attack AUC (%) per set.
	AUC []float64
	// Accuracy is the mean personalized-model accuracy (%) per set.
	Accuracy []float64
}

// fig5LayerSets returns the paper's nested layer sets for an n-layer model:
// {n-1}, {n-2, n-1}, ..., {1..n} in 1-based labels — the penultimate layer
// first, growing toward the full model.
func fig5LayerSets(n int) [][]int {
	var sets [][]int
	for size := 1; size <= n; size++ {
		var set []int
		start := n - 1 - size // 0-based first layer of the set
		if size == n {
			start = 0
		}
		for l := start; l < start+size && l < n; l++ {
			set = append(set, l)
		}
		sets = append(sets, set)
	}
	return sets
}

// Fig5 runs DINAR with growing obfuscation sets and reports privacy and
// utility per set.
func Fig5(ctx context.Context, o Options, dataset string) (*Fig5Result, error) {
	if dataset == "" {
		dataset = "purchase100"
	}
	res := &Fig5Result{Dataset: dataset}
	// The figure's attacker is the loss-threshold one at every scale.
	o.UseShadowAttack = false
	cfg := o.flConfig(dataset, fl.OptimizerFor("dinar"))
	// Determine the layer count from the federation's model without training.
	m, err := cfg.BuildModel()
	if err != nil {
		return nil, err
	}
	for _, set := range fig5LayerSets(m.NumLayers()) {
		cell, err := evaluate(ctx, o, cfg, core.NewWithLayers(o.Seed, set...))
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, setLabel(set))
		res.AUC = append(res.AUC, cell.LocalAUC)
		res.Accuracy = append(res.Accuracy, cell.Accuracy)
	}
	return res, nil
}

func setLabel(set []int) string {
	s := ""
	for i, l := range set {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", l+1) // 1-based labels as in the paper
	}
	return s
}

// Table renders the privacy/utility rows per obfuscation set.
func (r *Fig5Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 5: obfuscating more layers — "+r.Dataset,
		"Obfuscated layers", "Attack AUC (%)", "Model accuracy (%)")
	for i := range r.Sets {
		t.AddRow(r.Sets[i], r.AUC[i], r.Accuracy[i])
	}
	return t
}
