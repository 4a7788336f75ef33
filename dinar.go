// Package dinar is the public API of this repository: a from-scratch Go
// implementation of DINAR — "Personalized Privacy-Preserving Federated
// Learning" (Boscher, Benarba, Elhattab, Bouchenak; MIDDLEWARE '24,
// doi:10.1145/3652892.3700785) — together with the complete substrate the
// paper's evaluation needs: a neural-network engine, synthetic stand-ins for
// the paper's seven datasets, the FedAvg federated-learning core, five
// state-of-the-art defense baselines (LDP, CDP, WDP, GC, SA), membership
// inference attacks, the layer-leakage analyzer, the Byzantine-tolerant
// layer-vote consensus, and a TCP middleware deployment.
//
// # Quick start
//
//	sys, err := dinar.New(dinar.Config{
//		Dataset: "purchase100",
//		Defense: "dinar",
//		Clients: 5,
//		Rounds:  10,
//		Seed:    1,
//	})
//	if err != nil { ... }
//	if err := sys.Train(ctx); err != nil { ... }
//	priv, err := sys.EvaluatePrivacy(ctx) // attack AUCs, 50% = optimal
//	acc, err := sys.Utility()             // mean personalized accuracy
//
// Experiment reproduction (every table/figure of the paper's §5) is exposed
// through RunExperiment and the cmd/dinar-bench tool.
package dinar

import (
	"context"
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/fl"
)

// Defenses lists the supported defense names in the paper's presentation
// order: "none" (undefended baseline), "wdp", "ldp", "cdp", "gc", "sa", and
// "dinar".
func Defenses() []string {
	return append([]string(nil), defense.StandardNames...)
}

// Datasets lists the supported dataset names (synthetic stand-ins for the
// paper's Table 2, CPU-scaled).
func Datasets() []string { return data.Names() }

// Experiments lists the reproducible paper artifacts (table/figure IDs).
func Experiments() []string { return experiment.IDs() }

// Config describes a federated-learning run.
type Config struct {
	// Dataset is one of Datasets() (default "purchase100").
	Dataset string
	// Defense is one of Defenses() (default "dinar").
	Defense string
	// Clients is the number of FL participants (default 5).
	Clients int
	// Rounds is the number of FL rounds (default 10).
	Rounds int
	// LocalEpochs is the number of local epochs per round (default 5).
	LocalEpochs int
	// BatchSize is the local mini-batch size (default 64, as in the paper).
	BatchSize int
	// LearningRate is the client learning rate; 0 selects a per-optimizer
	// default.
	LearningRate float64
	// Optimizer overrides the client optimizer ("sgd", "sam", "adagrad",
	// "adam", "adamax", "rmsprop", "adgd"). Empty selects the one the
	// defense trains with: DINAR's Adagrad, DP-FedSAM's SAM, SGD otherwise.
	Optimizer string
	// Records overrides the dataset's record count (0 = spec default).
	Records int
	// DirichletAlpha < +Inf produces a non-IID partition (§5.8); 0 means
	// IID.
	DirichletAlpha float64
	// Seed makes the run fully deterministic.
	Seed int64
	// Parallel trains clients concurrently.
	Parallel bool
	// Aggregator selects the server-side aggregation rule: "fedavg" (the
	// default, the defense's own rule), "median", "trimmed-mean", "krum",
	// "multi-krum", or "norm-bound". The robust rules tolerate up to
	// MaxByzantine poisoned updates per round.
	Aggregator string
	// MaxByzantine is the assumed number of malicious clients f the robust
	// aggregator must tolerate.
	MaxByzantine int
}

// Aggregators lists the selectable server-side aggregation rules.
func Aggregators() []string {
	return append([]string(nil), fl.AggregatorNames...)
}

// withDefaults fills what the facade decides itself: the dataset, the defense
// and, from the defense, the optimizer and its tuned rate. The federation's
// shape (clients, rounds, epochs, batch size, IID) defaults in fl.Config.
func (c Config) withDefaults() Config {
	if c.Defense == "" {
		c.Defense = "dinar"
	}
	if c.Optimizer == "" {
		c.Optimizer = fl.OptimizerFor(c.Defense)
	}
	if c.Dataset == "" {
		c.Dataset = "purchase100"
	}
	if c.LearningRate == 0 {
		c.LearningRate = fl.DefaultLearningRate(c.Dataset, c.Optimizer)
	}
	return c
}

// flConfig is the one conversion from the facade's Config to the assembly's
// (internal/fl), defaults applied: New, the TCP server, every TCP client, the
// layer vote and a service-mode job derive their data, models, clients and
// seed streams from the fl.Config it returns.
func (c Config) flConfig() fl.Config {
	c = c.withDefaults()
	return fl.Config{
		Dataset:        c.Dataset,
		Records:        c.Records,
		Clients:        c.Clients,
		Rounds:         c.Rounds,
		LocalEpochs:    c.LocalEpochs,
		BatchSize:      c.BatchSize,
		LearningRate:   c.LearningRate,
		Optimizer:      c.Optimizer,
		DirichletAlpha: c.DirichletAlpha,
		Seed:           c.Seed,
		Parallel:       c.Parallel,
		Aggregator:     c.Aggregator,
		MaxByzantine:   c.MaxByzantine,
	}.WithDefaults()
}

// DefaultLearningRate returns the tuned learning rate for a (dataset,
// optimizer) pair: adaptive optimizers use 0.01, SGD uses a per-dataset
// tuned rate.
func DefaultLearningRate(dataset, optimizer string) float64 {
	return fl.DefaultLearningRate(dataset, optimizer)
}

// System is an assembled in-process federation ready to train: the
// reference oracle (fl.System) behind the facade. The TCP deployment
// (NewMiddlewareServer, RunMiddlewareClient) is held to its final state bit
// for bit; DESIGN.md, "One assembly", says how.
type System struct {
	sys *fl.System

	finalUpdates []*fl.Update
}

// New builds a deterministic federated system from cfg.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	fc := cfg.flConfig()
	def, err := defense.New(cfg.Defense, fc.DefenseSeed(), fc.Clients)
	if err != nil {
		return nil, err
	}
	sys, err := fl.NewSystem(fc, def)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Train runs all configured rounds and installs the final (personalized)
// models into the clients.
func (s *System) Train(ctx context.Context) error {
	updates, err := s.sys.Run(ctx)
	if err != nil {
		return err
	}
	s.finalUpdates = updates
	return s.sys.FinalizeClients()
}

// Rounds returns the number of completed rounds.
func (s *System) Rounds() int { return s.sys.Server.Round() }

// Utility returns the paper's overall model utility metric: the mean test
// accuracy of the clients' personalized models (Appendix A). Call after
// Train.
func (s *System) Utility() (float64, error) {
	if s.sys.Server.Round() == 0 {
		return 0, fmt.Errorf("dinar: Utility before Train")
	}
	return s.sys.MeanClientAccuracy(s.sys.Split.Test)
}

// PrivacyReport holds membership-inference outcomes; 0.5 is the optimum
// (random attacker), higher means more leakage.
type PrivacyReport struct {
	// GlobalAUC is the attack AUC against the global FL model.
	GlobalAUC float64
	// LocalAUC is the mean attack AUC against the clients' uploaded models.
	LocalAUC float64
}

// EvaluatePrivacy mounts the paper's shadow-model membership inference
// attack (§5.5, [41]) against the trained system and reports attack AUCs.
// Call after Train.
func (s *System) EvaluatePrivacy(ctx context.Context) (*PrivacyReport, error) {
	if s.finalUpdates == nil {
		return nil, fmt.Errorf("dinar: EvaluatePrivacy before Train")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run := &experiment.FLRun{Sys: s.sys, Updates: s.finalUpdates}
	o := experiment.DefaultOptions()
	o.Seed = s.sys.Config.Seed
	v, err := o.Measure(run)
	if err != nil {
		return nil, err
	}
	// The evaluation reads in percent; this report is in fractions.
	return &PrivacyReport{GlobalAUC: v[experiment.MetricGlobalAUC] / 100, LocalAUC: v[experiment.MetricLocalAUC] / 100}, nil
}

// CostReport summarizes measured costs (Table 3's metrics). The heap peaks
// are process-global samples (see metrics.CostMeter): with parallel clients
// the train-phase peak includes concurrently training siblings, so the
// per-phase split is an upper bound per phase, not a per-client figure.
type CostReport struct {
	MeanClientTrain time.Duration
	MeanServerAgg   time.Duration
	PeakAllocBytes  uint64
	PeakTrainBytes  uint64
	PeakAggBytes    uint64
	DefenseBytes    uint64
}

// Costs returns the run's cost metrics.
func (s *System) Costs() CostReport {
	r := s.sys.Meter.Report()
	return CostReport{
		MeanClientTrain: r.MeanClientTrain,
		MeanServerAgg:   r.MeanServerAgg,
		PeakAllocBytes:  r.PeakAllocBytes,
		PeakTrainBytes:  r.PeakTrainBytes,
		PeakAggBytes:    r.PeakAggBytes,
		DefenseBytes:    r.DefenseBytes,
	}
}

// RunExperiment regenerates one paper artifact (any ID of Experiments) and
// returns its rendered table. quick selects a reduced smoke-scale
// configuration.
func RunExperiment(ctx context.Context, id string, quick bool) (string, error) {
	o := experiment.DefaultOptions()
	if quick {
		o = experiment.QuickOptions()
	}
	tbl, err := experiment.Run(ctx, id, o)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}
