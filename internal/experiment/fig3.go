package experiment

import (
	"context"

	"repro/internal/fl"
	"repro/internal/metrics"
)

// Fig3Defenses are the defenses compared in the paper's Figure 3.
var Fig3Defenses = []string{"none", "ldp", "cdp", "wdp", "dinar"}

// Fig3Series summarizes the member/non-member loss distributions under one
// defense: the paper plots the two densities; we report their histograms
// plus summary statistics.
type Fig3Series struct {
	Defense string
	// MemberLosses and NonMemberLosses are per-sample losses of the model a
	// client actually uses for predictions (DINAR: the personalized model).
	MemberLosses    []float64
	NonMemberLosses []float64
	// MeanMember and MeanNonMember are the distribution means.
	MeanMember, MeanNonMember float64
	// JS is the divergence between the two loss distributions — the
	// attacker-exploitable gap (0 = indistinguishable).
	JS float64
}

// Fig3Result reproduces Figure 3 (model loss distributions under different
// privacy techniques, Cifar-10).
type Fig3Result struct {
	Dataset string
	Series  []Fig3Series
}

// Fig3 runs each defense on the dataset (paper: Cifar-10) and collects the
// loss distributions of member and non-member samples.
func Fig3(ctx context.Context, o Options, dataset string) (*Fig3Result, error) {
	if dataset == "" {
		dataset = "cifar10"
	}
	res := &Fig3Result{Dataset: dataset}
	for _, dname := range Fig3Defenses {
		run, err := o.RunNamed(ctx, dataset, dname)
		if err != nil {
			return nil, err
		}
		// The attacked model is what the adversary actually observes: the
		// broadcast global model (for DINAR, with the obfuscated private
		// layer). Members are the whole federation's training pool.
		attacked, err := ModelFromState(run.Sys.Spec(), run.Sys.Server.GlobalState(), 33)
		if err != nil {
			return nil, err
		}
		memberLosses, err := fl.PerSampleLosses(attacked, run.Sys.Split.Train, o.BatchSize)
		if err != nil {
			return nil, err
		}
		nonLosses, err := fl.PerSampleLosses(attacked, run.Sys.Split.Test, o.BatchSize)
		if err != nil {
			return nil, err
		}
		js, err := metrics.JSDivergenceSamples(memberLosses, nonLosses, 24)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig3Series{
			Defense:         dname,
			MemberLosses:    memberLosses,
			NonMemberLosses: nonLosses,
			MeanMember:      metrics.Mean(memberLosses),
			MeanNonMember:   metrics.Mean(nonLosses),
			JS:              js,
		})
	}
	return res, nil
}

// Table renders per-defense loss-distribution summaries.
func (r *Fig3Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 3: member vs non-member loss distributions — "+r.Dataset,
		"Defense", "Mean loss (members)", "Mean loss (non-members)", "JS(member‖non-member)")
	for _, s := range r.Series {
		t.AddRow(s.Defense, s.MeanMember, s.MeanNonMember, s.JS)
	}
	return t
}
