// Package experiment regenerates the tables and figures of the paper's
// evaluation (§5) at a CPU-scaled configuration. Every artifact but the
// static Table 1 is one reading of one federation (RunFL) re-run along the
// artifact's axes: an entry of Sweeps, run by RunSweep into rows and
// rendered by SweepResult.Table. Figures 5–11 and the ablations read
// Options.Measure; Fig 1, 3, 4, Table 3 and the Byzantine matrix name a
// reading of their own. Registry lists them by ID.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/nn"
)

// Options are the shared experiment knobs. The zero value is invalid; use
// DefaultOptions (full scaled runs) or QuickOptions (fast smoke-scale runs
// for tests).
type Options struct {
	// Seed drives everything deterministically.
	Seed int64
	// Records overrides each dataset's record count (0 = spec default).
	Records int
	// Clients, Rounds, LocalEpochs and BatchSize configure the FL system
	// (zero values fall back to fl.Config defaults). Clients train in
	// parallel at fl.DefaultLearningRate: SGD's per-dataset tuned rate, or
	// the adaptive optimizers' own (Adagrad and the §5.11 ablation
	// variants).
	Clients     int
	Rounds      int
	LocalEpochs int
	BatchSize   int
	// UseShadowAttack selects the Shokri shadow-model MIA; false selects the
	// cheaper loss-threshold MIA.
	UseShadowAttack bool
	// ShadowEpochs configures shadow-model training when UseShadowAttack.
	ShadowEpochs int
}

// DefaultOptions returns the standard scaled experiment configuration.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		Records:         1200,
		Clients:         5,
		Rounds:          8,
		LocalEpochs:     4,
		BatchSize:       32,
		UseShadowAttack: true,
		ShadowEpochs:    20,
	}
}

// QuickOptions returns a reduced configuration for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Seed:         1,
		Records:      500,
		Clients:      3,
		Rounds:       3,
		LocalEpochs:  2,
		BatchSize:    32,
		ShadowEpochs: 8,
	}
}

// flConfig converts Options to an fl.Config for the given dataset and client
// optimizer.
func (o Options) flConfig(dataset, optimizer string) fl.Config {
	return fl.Config{
		Dataset:      dataset,
		Records:      o.Records,
		Clients:      o.Clients,
		Rounds:       o.Rounds,
		LocalEpochs:  o.LocalEpochs,
		BatchSize:    o.BatchSize,
		LearningRate: fl.DefaultLearningRate(dataset, optimizer),
		Optimizer:    optimizer,
		Seed:         o.Seed,
		Parallel:     true,
	}
}

// Federation is how the evaluation reruns one federation under each defense
// (§5): the configuration for dataset with the optimizer the named defense
// trains with, and that defense from the registry on the federation's
// defense stream.
func (o Options) Federation(dataset, defenseName string) (fl.Config, fl.Defense, error) {
	cfg := o.flConfig(dataset, fl.OptimizerFor(defenseName))
	def, err := defense.New(defenseName, cfg.DefenseSeed(), cfg.Clients)
	return cfg, def, err
}

// FLRun bundles everything an experiment needs after federated training.
type FLRun struct {
	Sys     *fl.System
	Updates []*fl.Update // final-round post-defense uploads
}

// RunFL assembles the federation cfg describes around def, trains it to
// completion, and finalizes clients (personalized models installed).
func RunFL(ctx context.Context, cfg fl.Config, def fl.Defense) (*FLRun, error) {
	sys, err := fl.NewSystem(cfg, def)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", cfg.Dataset, def.Name(), err)
	}
	updates, err := sys.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s run: %w", cfg.Dataset, def.Name(), err)
	}
	if err := sys.FinalizeClients(); err != nil {
		return nil, err
	}
	return &FLRun{Sys: sys, Updates: updates}, nil
}

// ModelFromState constructs the dataset's architecture and loads a state
// vector into it (how an attacker materializes an observed model).
func ModelFromState(spec data.Spec, state []float64, seed int64) (*nn.Model, error) {
	m, err := model.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if err := m.SetStateVector(state); err != nil {
		return nil, err
	}
	return m, nil
}

// Attacker is the common surface of the loss-threshold and shadow-model
// MIAs.
type Attacker interface {
	AUC(m *nn.Model, members, nonMembers *data.Dataset) (float64, error)
}

// attackerCache memoizes fitted shadow attacks. The attacker's shadow
// models depend only on the dataset, its splits (derived from the seed), and
// the shadow training configuration — never on the defense under test — so
// sweeping seven defenses over one dataset needs exactly one fit.
var attackerCache sync.Map // attackerKey -> *attack.ShadowAttack

type attackerKey struct {
	dataset      string
	records      int
	noiseMilli   int64
	seed         int64
	shadowEpochs int
}

// NewAttacker builds (and, for the shadow attack, fits) the configured MIA
// for the given run. Fitted shadow attacks are cached per dataset
// configuration.
func (o Options) NewAttacker(run *FLRun) (Attacker, error) {
	if !o.UseShadowAttack {
		return attack.NewLossAttack(), nil
	}
	spec := run.Sys.Spec()
	key := attackerKey{
		dataset:      spec.Name,
		records:      spec.Records,
		noiseMilli:   int64(spec.Noise * 1000),
		seed:         o.Seed,
		shadowEpochs: o.ShadowEpochs,
	}
	if cached, ok := attackerCache.Load(key); ok {
		return cached.(*attack.ShadowAttack), nil
	}
	atk := attack.NewShadowAttack(o.Seed + 77)
	if o.ShadowEpochs > 0 {
		atk.Epochs = o.ShadowEpochs
	}
	build := func(rng *rand.Rand) (*nn.Model, error) { return model.Build(spec, rng) }
	if err := atk.Fit(run.Sys.Split.Attacker, build); err != nil {
		return nil, fmt.Errorf("experiment: fit shadow attack: %w", err)
	}
	attackerCache.Store(key, atk)
	return atk, nil
}

// GlobalAUC attacks the final global model: members are the federation's
// training pool, non-members the held-out test pool (Appendix A, first
// privacy metric).
func GlobalAUC(run *FLRun, atk Attacker) (float64, error) {
	spec := run.Sys.Spec()
	m, err := ModelFromState(spec, run.Sys.Server.GlobalState(), 999)
	if err != nil {
		return 0, err
	}
	return atk.AUC(m, run.Sys.Split.Train, run.Sys.Split.Test)
}

// LocalAUC attacks each client's uploaded (post-defense) model with that
// client's shard as members and averages the AUCs (Appendix A, second
// privacy metric — what a server-side attacker achieves).
func LocalAUC(run *FLRun, atk Attacker) (float64, error) {
	spec := run.Sys.Spec()
	sum := 0.0
	for _, u := range run.Updates {
		state := u.State
		// Secure aggregation pre-scales uploads by the sample count; a
		// server-side attacker would also see that scale and divide it out.
		if u.NumSamples > 0 && run.Sys.Defense.Name() == "sa" {
			state = append([]float64(nil), state...)
			inv := 1.0 / float64(u.NumSamples)
			for j := range state {
				state[j] *= inv
			}
		}
		m, err := ModelFromState(spec, state, 998)
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

// Measure reads a finished run the way every privacy/utility figure does:
// the configured attack's AUC against the final global model and against the
// uploaded local models, and the mean personalized accuracy, all in percent.
func (o Options) Measure(run *FLRun) (map[Metric]float64, error) {
	atk, err := o.NewAttacker(run)
	if err != nil {
		return nil, err
	}
	global, err := GlobalAUC(run, atk)
	if err != nil {
		return nil, err
	}
	local, err := LocalAUC(run, atk)
	if err != nil {
		return nil, err
	}
	acc, err := run.Sys.MeanClientAccuracy(run.Sys.Split.Test)
	if err != nil {
		return nil, err
	}
	return map[Metric]float64{
		MetricGlobalAUC: pct(global),
		MetricLocalAUC:  pct(local),
		MetricAccuracy:  pct(acc),
	}, nil
}

// pct renders a fraction as a percentage value (e.g. 0.5 -> 50.0).
func pct(v float64) float64 { return v * 100 }
