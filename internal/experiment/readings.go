package experiment

import (
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/adversary"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/leakage"
	"repro/internal/metrics"
)

// The readings of the sweeps that measure something other than the
// privacy/utility cell, and the cases they read.

// byzantineClients and byzantineF fix the Byzantine matrix's cohort: n=10
// participants of which f=3 are poisoned — the conventional "f of n"
// Byzantine setting, and large enough for the Krum family (n ≥ f+3).
const (
	byzantineClients = 10
	byzantineF       = 3
)

// fig1Cases: each dataset's undefended federation.
func fig1Cases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, ds := range ax.Datasets {
		c, err := o.named(ds, "none", ds)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// fig4Cases: the dataset's undefended federation, whose rows are its layers.
func fig4Cases(o Options, ax Axes) ([]Case, error) {
	c, err := o.named(ax.Dataset, "none")
	return []Case{c}, err
}

// defenseCases: each defense on the dataset (Fig 3, Table 3).
func defenseCases(o Options, ax Axes) ([]Case, error) {
	var cases []Case
	for _, dname := range ax.Defenses {
		c, err := o.named(ax.Dataset, dname, dname)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// byzantineCases: the benign baseline and then every attack, against every
// aggregation rule. The first f of n clients follow the attack in an
// undefended federation behind the default update screen.
func byzantineCases(o Options, ax Axes) ([]Case, error) {
	o.Clients = byzantineClients
	labels, schedules := []string{"benign"}, []adversary.Schedule{adversary.None}
	for _, kind := range ax.Attacks {
		labels = append(labels, kind.String())
		schedules = append(schedules, adversary.FirstF(byzantineF, adversary.Plan{Kind: kind}))
	}
	var cases []Case
	for i, schedule := range schedules {
		for _, agg := range ax.Aggregators {
			c, err := o.named(ax.Dataset, "none", labels[i], agg)
			if err != nil {
				return nil, err
			}
			c.Cfg.Aggregator = agg
			c.Cfg.MaxByzantine = byzantineF
			c.Def = adversary.Wrap(c.Def, o.Seed+13, schedule)
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// layerRows is §3's per-layer leakage of run's global model, built on seed:
// one row per layer, labelled by the case and the layer index, with its
// divergence and the most sensitive layer marked.
func layerRows(c Case, run *FLRun, seed int64) ([]Row, error) {
	m, err := ModelFromState(run.Sys.Spec(), run.Sys.Server.GlobalState(), seed)
	if err != nil {
		return nil, err
	}
	div, err := leakage.LayerDivergence(m, run.Sys.Split.Train, run.Sys.Split.Test)
	if err != nil {
		return nil, err
	}
	most := leakage.MostSensitiveLayer(div)
	rows := make([]Row, len(div))
	for l, d := range div {
		rows[l] = Row{Labels: append(slices.Clone(c.Labels), strconv.Itoa(l)), Values: map[Metric]float64{MetricJS: d}}
		if l == most {
			rows[l].Values[MetricMostSensitive] = 1
		}
	}
	return rows, nil
}

// readLeakage is Figure 1's reading.
func readLeakage(_ Options, c Case, run *FLRun) ([]Row, error) {
	return layerRows(c, run, 97)
}

// readLayerProtection is Figure 4's: (a) the per-layer leakage, and (b) the
// loss attack's local AUC when a fine-grained protection obfuscates exactly
// that layer, next to the unprotected local AUC.
func readLayerProtection(o Options, c Case, run *FLRun) ([]Row, error) {
	rows, err := layerRows(c, run, 41)
	if err != nil {
		return nil, err
	}
	atk := attack.NewLossAttack()
	baseline, err := LocalAUC(run, atk)
	if err != nil {
		return nil, err
	}
	for l := range rows {
		auc, err := ObfuscatedLocalAUC(run, atk, l, o.Seed+int64(l*100))
		if err != nil {
			return nil, err
		}
		rows[l].Values[MetricLocalAUC] = pct(baseline)
		rows[l].Values[MetricObfuscatedAUC] = pct(auc)
	}
	return rows, nil
}

// ObfuscatedLocalAUC is LocalAUC after obfuscating one layer of every final
// upload, upload i with draws seeded seed+i: what an attacker still learns
// when a fine-grained protection hides that layer (Fig 4b).
func ObfuscatedLocalAUC(run *FLRun, atk Attacker, layer int, seed int64) (float64, error) {
	spec := run.Sys.Spec()
	sp := run.Sys.Clients[0].Model.Spans()[layer]
	sum := 0.0
	for i, u := range run.Updates {
		state := append([]float64(nil), u.State...)
		if err := core.Obfuscate(state, sp, core.ObfuscateGaussian, rand.New(rand.NewSource(seed+int64(i)))); err != nil {
			return 0, err
		}
		m, err := ModelFromState(spec, state, 42)
		if err != nil {
			return 0, err
		}
		auc, err := atk.AUC(m, run.Sys.Shards[u.ClientID], run.Sys.Split.Test)
		if err != nil {
			return 0, err
		}
		sum += auc
	}
	return sum / float64(len(run.Updates)), nil
}

// readLosses is Figure 3's: the loss distributions of members (the
// federation's training pool) and non-members under the model the adversary
// observes, the broadcast global model (for DINAR, with the obfuscated
// private layer). The paper plots the two densities; the row holds their
// means and the divergence between them, the attacker-exploitable gap.
func readLosses(_ Options, c Case, run *FLRun) ([]Row, error) {
	m, err := ModelFromState(run.Sys.Spec(), run.Sys.Server.GlobalState(), 33)
	if err != nil {
		return nil, err
	}
	batch := run.Sys.Config.BatchSize
	members, err := fl.PerSampleLosses(m, run.Sys.Split.Train, batch)
	if err != nil {
		return nil, err
	}
	nonMembers, err := fl.PerSampleLosses(m, run.Sys.Split.Test, batch)
	if err != nil {
		return nil, err
	}
	js, err := metrics.JSDivergenceSamples(members, nonMembers, 24)
	if err != nil {
		return nil, err
	}
	return []Row{{Labels: c.Labels, Values: map[Metric]float64{
		MetricMemberLoss:    metrics.Mean(members),
		MetricNonMemberLoss: metrics.Mean(nonMembers),
		MetricJS:            js,
	}}}, nil
}

// readCosts is Table 3's: the run's cost meter.
func readCosts(_ Options, c Case, run *FLRun) ([]Row, error) {
	rep := run.Sys.Meter.Report()
	return []Row{{Labels: c.Labels, Values: map[Metric]float64{
		MetricClientTrain:  float64(rep.MeanClientTrain),
		MetricServerAgg:    float64(rep.MeanServerAgg),
		MetricDefenseKiB:   float64(rep.DefenseBytes) / 1024,
		MetricPeakTrainMiB: float64(rep.PeakTrainBytes) / (1024 * 1024),
		MetricPeakAggMiB:   float64(rep.PeakAggBytes) / (1024 * 1024),
	}}}, nil
}

// readByzantine is the Byzantine matrix's: the final global model's test
// accuracy, whether its state stayed finite, and the screen's verdicts.
func readByzantine(_ Options, c Case, run *FLRun) ([]Row, error) {
	state := run.Sys.Server.GlobalState()
	m, err := ModelFromState(run.Sys.Spec(), state, 997)
	if err != nil {
		return nil, err
	}
	acc, _, err := fl.EvaluateModel(m, run.Sys.Split.Test, run.Sys.Config.BatchSize)
	if err != nil {
		return nil, err
	}
	v := map[Metric]float64{MetricGlobalAccuracy: pct(acc)}
	if !slices.ContainsFunc(state, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
		v[MetricFinite] = 1
	}
	for _, rep := range run.Sys.Server.ScreenReports() {
		v[MetricRejected] += float64(len(rep.Rejected))
		v[MetricQuarantined] += float64(len(rep.Quarantined))
		v[MetricClipped] += float64(len(rep.Clipped))
	}
	return []Row{{Labels: c.Labels, Values: v}}, nil
}
