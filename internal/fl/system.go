package fl

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// System is an in-process federation — one server, N clients and the shared
// defense calling each other directly — and the reference oracle the
// networked path is held to: for equal configurations it must end on the
// final state dinar.NewMiddlewareServer and dinar.RunMiddlewareClient end
// on, bit for bit (TestSystemMatchesTCP), with no socket, codec or
// checkpoint in between. Every figure and table experiment runs through it.
// It trains every client in every round: it samples nothing until it can
// sample the way the engine does (flnet.SampleOrder).
type System struct {
	Config  Config
	Server  *Server
	Clients []*Client
	Defense Defense
	Meter   *metrics.CostMeter

	// Split holds the attacker/train/test pools (paper §5.1 protocol).
	Split *data.FLSplit
	// Shards holds each client's training shard (aligned with Clients).
	Shards []*data.Dataset

	spec data.Spec
}

// NewSystem assembles cfg's federation around def: the data and its
// partition, one model per client, and the server behind the update screen.
// The same Seed yields a bit-identical system.
func NewSystem(cfg Config, def Defense) (*System, error) {
	cfg = cfg.WithDefaults()
	if def == nil {
		return nil, fmt.Errorf("fl: nil defense (use defense.None for the baseline)")
	}
	def, err := WithAggregator(def, cfg.Aggregator, cfg.MaxByzantine)
	if err != nil {
		return nil, err
	}
	spec, err := cfg.Spec()
	if err != nil {
		return nil, err
	}
	split, shards, err := cfg.Partition()
	if err != nil {
		return nil, err
	}
	// Every client starts from the same initial model, so build it once and
	// deep-clone for the rest: bit-identical parameters, unshared layer
	// workspaces.
	base, err := cfg.BuildModel()
	if err != nil {
		return nil, err
	}
	initState := base.StateVector()
	// One cost meter per system: its clients, its server and a defense that
	// accounts extra buffer memory (Table 3's third metric) all count into
	// it.
	meter := metrics.NewCostMeter()
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		m := base
		if i > 0 {
			m = base.Clone()
		}
		if clients[i], err = cfg.BuildClient(i, m, shards[i]); err != nil {
			return nil, err
		}
		clients[i].meter = meter
	}
	if err := def.Bind(InfoOf(base)); err != nil {
		return nil, fmt.Errorf("fl: bind defense %q: %w", def.Name(), err)
	}
	if metered, ok := def.(interface{ SetMeter(*metrics.CostMeter) }); ok {
		metered.SetMeter(meter)
	}
	server, err := NewServer(initState, def, meter)
	if err != nil {
		return nil, err
	}
	if !cfg.NoScreen {
		server.SetScreen(NewScreen(ScreenConfig{}))
	}
	return &System{
		Config:  cfg,
		Server:  server,
		Clients: clients,
		Defense: def,
		Meter:   meter,
		Split:   split,
		Shards:  shards,
		spec:    spec,
	}, nil
}

// Spec returns the dataset spec the system was built with (after Records
// override).
func (s *System) Spec() data.Spec { return s.spec }

// RunRound executes one FL round across every client and aggregates. It
// returns the round's client updates (post-defense, i.e. exactly what a
// server-side attacker observes); each State is its client's buffer, valid
// until the next RunRound.
func (s *System) RunRound(ctx context.Context) ([]*Update, error) {
	round := s.Server.Round()
	global := s.Server.GlobalState()
	updates := make([]*Update, len(s.Clients))

	if s.Config.Parallel {
		// Clients train concurrently on the shared compute pool: the pool
		// bounds client-level concurrency at Workers(), and the matmul /
		// im2col fan-outs inside each client draw from the same token
		// bucket, so a 50-client round no longer schedules
		// 50×GOMAXPROCS compute goroutines. Errors land in an indexed
		// slice and the lowest-index one wins, deterministically.
		errs := make([]error, len(s.Clients))
		parallel.For(len(s.Clients), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				updates[i], errs[i] = s.Clients[i].RunRound(round, global, s.Defense)
			}
		})
		if err := firstError(errs); err != nil {
			return nil, err
		}
	} else {
		for i, c := range s.Clients {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			u, err := c.RunRound(round, global, s.Defense)
			if err != nil {
				return nil, err
			}
			updates[i] = u
		}
	}
	if err := s.Server.Aggregate(updates); err != nil {
		return nil, err
	}
	return updates, nil
}

// Run executes cfg.Rounds rounds and returns the updates of the final round.
func (s *System) Run(ctx context.Context) ([]*Update, error) {
	var last []*Update
	for r := 0; r < s.Config.Rounds; r++ {
		updates, err := s.RunRound(ctx)
		if err != nil {
			return nil, err
		}
		last = updates
	}
	return last, nil
}

// firstError returns the lowest-index non-nil error of an indexed error
// slice — the deterministic "first error wins" rule shared by the
// pool-parallel client loops.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FinalizeClients delivers the final global model to every client through the
// defense's download path (so DINAR clients end personalized), leaving each
// client's model in its prediction-ready state. Call after Run and before
// evaluating client utility. Clients are finalized concurrently on the
// shared compute pool; on failure the lowest-index error is returned.
func (s *System) FinalizeClients() error {
	round := s.Server.Round()
	global := s.Server.GlobalState()
	errs := make([]error, len(s.Clients))
	parallel.For(len(s.Clients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := s.Clients[i]
			state := s.Defense.OnGlobalModel(c.ID, round, global)
			errs[i] = c.Install(state)
		}
	})
	return firstError(errs)
}

// MeanClientAccuracy evaluates every client's personalized model on ds and
// returns the average accuracy — the paper's "overall model utility metric"
// (Appendix A). Clients are evaluated concurrently on the shared compute
// pool; per-client accuracies land in an indexed slice and are summed in
// client order, so the result is bit-identical to the serial loop, and on
// failure the lowest-index error is returned.
func (s *System) MeanClientAccuracy(ds *data.Dataset) (float64, error) {
	accs := make([]float64, len(s.Clients))
	errs := make([]error, len(s.Clients))
	parallel.For(len(s.Clients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			accs[i], _, errs[i] = s.Clients[i].Evaluate(ds)
		}
	})
	if err := firstError(errs); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, acc := range accs {
		sum += acc
	}
	return sum / float64(len(s.Clients)), nil
}
