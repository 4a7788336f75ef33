package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
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
	run, err := o.RunNamed(ctx, dataset, "none")
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
