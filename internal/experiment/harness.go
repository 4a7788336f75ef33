// Package experiment regenerates the tables and figures of the paper's
// evaluation (§5) at a CPU-scaled configuration. Figures 5–11 and the two
// ablations are one reading (Options.Measure) of one federation (RunFL)
// re-run along a different axis: entries of Sweeps, run by RunSweep. Fig 1,
// 3, 4, Table 1, Table 3 and the Byzantine matrix measure other things and
// have a runner and a result type each. Every artifact returns structured
// results (for tests and benchmarks) and a printable table with the rows the
// paper reports; Registry lists them by ID.
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
	// Clients, Rounds, LocalEpochs, BatchSize, LearningRate configure the FL
	// system (zero values fall back to fl.Config defaults).
	Clients      int
	Rounds       int
	LocalEpochs  int
	BatchSize    int
	LearningRate float64
	// AdaptiveLearningRate is the learning rate used with adaptive
	// optimizers (Adagrad and the §5.11 ablation variants), whose effective
	// per-coordinate step starts near the raw rate and therefore needs a
	// smaller value than SGD.
	AdaptiveLearningRate float64
	// UseShadowAttack selects the Shokri shadow-model MIA; false selects the
	// cheaper loss-threshold MIA.
	UseShadowAttack bool
	// ShadowEpochs configures shadow-model training when UseShadowAttack.
	ShadowEpochs int
	// Parallel trains FL clients concurrently.
	Parallel bool
}

// DefaultOptions returns the standard scaled experiment configuration.
func DefaultOptions() Options {
	return Options{
		Seed:                 1,
		Records:              1200,
		Clients:              5,
		Rounds:               8,
		LocalEpochs:          4,
		BatchSize:            32,
		LearningRate:         0, // per-dataset tuned SGD rate
		AdaptiveLearningRate: 0.01,
		UseShadowAttack:      true,
		ShadowEpochs:         20,
		Parallel:             true,
	}
}

// QuickOptions returns a reduced configuration for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Seed:                 1,
		Records:              500,
		Clients:              3,
		Rounds:               3,
		LocalEpochs:          2,
		BatchSize:            32,
		LearningRate:         0, // per-dataset tuned SGD rate
		AdaptiveLearningRate: 0.01,
		ShadowEpochs:         8,
		Parallel:             true,
	}
}

// flConfig converts Options to an fl.Config for the given dataset and client
// optimizer.
func (o Options) flConfig(dataset, optimizer string) fl.Config {
	lr := fl.DefaultLearningRate(dataset, optimizer)
	if fl.AdaptiveOptimizer(optimizer) {
		if o.AdaptiveLearningRate > 0 {
			lr = o.AdaptiveLearningRate
		}
	} else if o.LearningRate > 0 {
		lr = o.LearningRate
	}
	return fl.Config{
		Dataset:      dataset,
		Records:      o.Records,
		Clients:      o.Clients,
		Rounds:       o.Rounds,
		LocalEpochs:  o.LocalEpochs,
		BatchSize:    o.BatchSize,
		LearningRate: lr,
		Optimizer:    optimizer,
		Seed:         o.Seed,
		Parallel:     o.Parallel,
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

// RunNamed is RunFL of that federation.
func (o Options) RunNamed(ctx context.Context, dataset, defenseName string) (*FLRun, error) {
	cfg, def, err := o.Federation(dataset, defenseName)
	if err != nil {
		return nil, err
	}
	return RunFL(ctx, cfg, def)
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
func (o Options) Measure(run *FLRun) (*PrivacyCell, error) {
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
	return &PrivacyCell{
		Defense:   run.Sys.Defense.Name(),
		GlobalAUC: pct(global),
		LocalAUC:  pct(local),
		Accuracy:  pct(acc),
	}, nil
}

// pct renders a fraction as a percentage value (e.g. 0.5 -> 50.0).
func pct(v float64) float64 { return v * 100 }
