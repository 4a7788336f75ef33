package fl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
)

// Config describes a federation. System runs it in process; the TCP server,
// each TCP client process, the layer vote and a service-mode job derive
// their share of the same federation from it (see the assembly methods
// below).
type Config struct {
	// Dataset names a registered dataset spec (internal/data.Registry).
	Dataset string
	// Records overrides the spec's default record count when > 0.
	Records int
	// Clients is the number of FL participants (paper: 5, or 10 for
	// Purchase100).
	Clients int
	// Rounds is the number of FL rounds.
	Rounds int
	// LocalEpochs is the number of local epochs per round (paper: 5, or 10
	// for Purchase100).
	LocalEpochs int
	// BatchSize is the local mini-batch size (paper: 64).
	BatchSize int
	// LearningRate is the client learning rate (paper: 1e-3; our scaled
	// models use larger rates, set per experiment).
	LearningRate float64
	// Optimizer names the client optimizer: sgd, sam, adagrad, adam, adamax,
	// rmsprop, adgd. OptimizerFor names the one a defense trains with.
	Optimizer string
	// DirichletAlpha controls the non-IID partition; +Inf (or 0, the zero
	// value, treated as +Inf) means IID.
	DirichletAlpha float64
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Parallel trains clients concurrently when true.
	Parallel bool
	// Aggregator selects the server-side aggregation rule ("fedavg",
	// "median", "trimmed-mean", "krum", "multi-krum", "norm-bound"); empty
	// means the defense's own rule (FedAvg for most defenses).
	Aggregator string
	// MaxByzantine is the assumed number of malicious clients f the robust
	// aggregator must tolerate (Krum family tolerance, trimmed-mean trim).
	MaxByzantine int
	// NoScreen disables the server's update screen. By default every
	// round's updates are validated (shape, NaN/Inf) and offenders are
	// quarantined before the defense aggregates.
	NoScreen bool
}

// The assembly: everything Config.Seed decides about a federation before its
// first round is derived by the methods below and nowhere else. System, the
// TCP server and every TCP client process, the §4.1 layer vote, a
// service-mode job and each experiment call them (on a Config that has been
// through WithDefaults), so two entry points handed equal configurations
// hold equal data, equal models and equal clients — which is what lets
// System stand as the oracle the socket path is compared to.
//
// Each seeded component draws from its own stream, Config.Seed plus one of
// the offsets below. They are part of the repository's reproducibility
// contract: every golden digest, benchmark hash and experiment table depends
// on them (DESIGN.md, "Seed streams").
const (
	seedSplit   = 1   // attacker/train/test split, then the shard partition, on one rng
	seedModel   = 2   // the initial model's parameters
	seedDefense = 7   // the defense's randomness
	seedClient  = 100 // + client id: local mini-batch order
	seedProbe   = 200 // + client id: the layer vote's probe training
	seedVote    = 300 // the layer vote's broadcast schedule
)

// WithDefaults fills unset fields with the paper's §5.3 defaults, scaled.
func (c Config) WithDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 5
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.Optimizer == "" {
		c.Optimizer = "sgd"
	}
	if c.DirichletAlpha == 0 {
		c.DirichletAlpha = math.Inf(1)
	}
	return c
}

// Spec returns the dataset spec, Records override applied.
func (c Config) Spec() (data.Spec, error) {
	spec, err := data.Lookup(c.Dataset)
	if err != nil {
		return data.Spec{}, err
	}
	if c.Records > 0 {
		spec.Records = c.Records
	}
	return spec, nil
}

// Partition generates the dataset and cuts it into the attacker/train/test
// pools of the paper's §5.1 protocol and one training shard per client: IID,
// or Dirichlet(α) when DirichletAlpha is finite.
func (c Config) Partition() (*data.FLSplit, []*data.Dataset, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, nil, err
	}
	ds, err := data.Generate(spec, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed + seedSplit))
	split := data.NewFLSplit(ds, rng)
	var shards []*data.Dataset
	if math.IsInf(c.DirichletAlpha, 1) {
		shards, err = data.PartitionIID(split.Train, c.Clients, rng)
	} else {
		shards, err = data.PartitionDirichlet(split.Train, c.Clients, c.DirichletAlpha, rng)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fl: partition: %w", err)
	}
	return split, shards, nil
}

// BuildModel builds the dataset's architecture with the federation's initial
// parameters: the server's first global state and every client's starting
// point.
func (c Config) BuildModel() (*nn.Model, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	m, err := model.Build(spec, rand.New(rand.NewSource(c.Seed+seedModel)))
	if err != nil {
		return nil, fmt.Errorf("fl: build model: %w", err)
	}
	return m, nil
}

// BuildClient builds client id around m and its shard, with the configured
// optimizer and the client's own mini-batch stream.
func (c Config) BuildClient(id int, m *nn.Model, shard *data.Dataset) (*Client, error) {
	opt := optim.New(c.Optimizer, c.LearningRate)
	if opt == nil {
		return nil, fmt.Errorf("fl: unknown optimizer %q", c.Optimizer)
	}
	return NewClient(id, m, shard, opt, c.BatchSize, c.LocalEpochs,
		rand.New(rand.NewSource(c.Seed+seedClient+int64(id))))
}

// DefenseSeed seeds the federation's defense (defense.New's seed argument).
// Every process of a federation builds its own instance from it.
func (c Config) DefenseSeed() int64 { return c.Seed + seedDefense }

// ProbeRand is client id's mini-batch stream for its probe training in the
// §4.1 layer vote (dinar.ChoosePrivateLayer).
func (c Config) ProbeRand(id int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + seedProbe + int64(id)))
}

// VoteRand is the stream that schedules the layer vote's broadcasts.
func (c Config) VoteRand() *rand.Rand { return rand.New(rand.NewSource(c.Seed + seedVote)) }
