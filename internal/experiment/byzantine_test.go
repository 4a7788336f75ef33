package experiment

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
)

// TestByzantineMatrix is the PR's acceptance scenario: with 10 clients of
// which 3 are seeded adversaries, the robust aggregators hold the global
// accuracy near their no-adversary baseline while plain FedAvg demonstrably
// degrades under the boost attack, and NaN bombs never reach the global
// state.
func TestByzantineMatrix(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("24 federated runs take ~15min under the race detector; the adversary/screen/aggregator concurrency is race-covered by make adversary")
	}
	// The smoke-scale quick() run barely learns on a 100-class dataset, so
	// degradation would be invisible; this slightly larger configuration
	// reaches ~9% clean accuracy in a few seconds per run.
	o := quick()
	o.Records = 1200
	o.Rounds = 5
	o.LocalEpochs = 3
	ax := Axes{Dataset: "purchase100", Attacks: []adversary.Kind{adversary.Boost, adversary.NaNBomb},
		Aggregators: paper("byzantine").Aggregators}
	cases, err := byzantineCases(o, ax)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Cfg.Clients != 10 || c.Cfg.MaxByzantine != 3 {
			t.Fatalf("%v: cohort geometry = %d/%d, want 10/3", c.Labels, c.Cfg.Clients, c.Cfg.MaxByzantine)
		}
	}
	res, err := RunSweep(context.Background(), "byzantine", o, ax)
	if err != nil {
		t.Fatal(err)
	}
	var attacks []string
	for _, r := range res.Rows {
		if !slices.Contains(attacks, r.Labels[0]) {
			attacks = append(attacks, r.Labels[0])
		}
	}
	if len(attacks) != 3 || attacks[0] != "benign" {
		t.Fatalf("attacks = %v", attacks)
	}
	cell := func(attack, agg string) map[Metric]float64 { return row(t, res, attack, agg).Values }

	// Plain FedAvg is hijacked by the boosted minority.
	fedavgClean := cell("benign", "fedavg")[MetricGlobalAccuracy]
	fedavgBoost := cell("boost", "fedavg")[MetricGlobalAccuracy]
	if fedavgClean-fedavgBoost <= 2 {
		t.Fatalf("fedavg should degrade under boost: clean %.2f%%, boosted %.2f%%",
			fedavgClean, fedavgBoost)
	}

	// The robust rules stay within 2 points of their own no-adversary run
	// (one-sided: an attack can only hurt; chance improvements from the
	// changed selection are fine).
	for _, agg := range []string{"krum", "multi-krum", "norm-bound"} {
		clean := cell("benign", agg)[MetricGlobalAccuracy]
		boost := cell("boost", agg)[MetricGlobalAccuracy]
		if diff := clean - boost; diff > 2 {
			t.Fatalf("%s degraded %.2f points under boost (clean %.2f%%, boosted %.2f%%)",
				agg, diff, clean, boost)
		}
	}

	// NaN bombs are screened out before aggregation for every rule: the
	// global state stays finite and the three poisoners are rejected and
	// quarantined.
	for _, agg := range ax.Aggregators {
		v := cell("nan-bomb", agg)
		if v[MetricFinite] != 1 {
			t.Fatalf("%s: NaN reached the global state", agg)
		}
		if v[MetricRejected] < byzantineF {
			t.Fatalf("%s: only %v rejections for %d poisoners", agg, v[MetricRejected], byzantineF)
		}
		if v[MetricQuarantined] == 0 {
			t.Fatalf("%s: poisoners were never quarantined", agg)
		}
	}
	for _, agg := range ax.Aggregators {
		if v := cell("benign", agg); v[MetricRejected] != 0 || v[MetricQuarantined] != 0 {
			t.Fatalf("%s: benign run produced verdicts: %v", agg, v)
		}
	}

	tbl := res.Table().String()
	for _, want := range []string{"benign", "boost", "nan-bomb", "krum acc (%)"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}
