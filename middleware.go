package dinar

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/consensus"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/leakage"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// ServerOptions configures a TCP middleware server process.
type ServerOptions struct {
	// Addr is the listen address, e.g. "127.0.0.1:7070" (":0" for an
	// ephemeral port).
	Addr string
	// Config describes the federation; Dataset/Defense/Clients/Rounds/Seed
	// must match the client processes.
	Config Config
	// MinClients is the per-round quorum: after RoundDeadline a round
	// aggregates with any set of at least MinClients updates instead of
	// waiting for the full cohort. 0 means Config.Clients (no partial
	// rounds).
	MinClients int
	// RoundDeadline bounds one round's update collection; stragglers past
	// it are evicted (they may reconnect and rejoin). 0 means no deadline.
	RoundDeadline time.Duration
	// CheckpointPath, if non-empty, persists a global-model snapshot after
	// every round and resumes from it when the server restarts.
	CheckpointPath string
	// NoScreen disables the Byzantine update screen (validation, rejection
	// and quarantine of poisoned updates). On by default.
	NoScreen bool
	// ClipNorms additionally enables delta-norm clipping against a running
	// median-of-norms bound.
	ClipNorms bool
	// QuarantineRounds overrides how many rounds a poisoning client stays
	// excluded after rejection (0 = default 3, negative disables).
	QuarantineRounds int
	// SampleSize, when positive, samples that many of the registered
	// clients into each round's cohort (deterministic given the seed;
	// quarantined clients are never drawn; failed cohort members are
	// replaced from the same draw). 0 means every client, every round.
	SampleSize int
	// SampleSeed seeds the cohort draw; 0 adopts the checkpoint's
	// recorded seed when resuming, else Config.Seed.
	SampleSeed int64
	// AsyncStaleness, when positive, buffers stragglers' updates across
	// round boundaries and folds them into a later round weighted down by
	// age, up to this many rounds; rounds then never block on stragglers.
	AsyncStaleness int
	// Streaming folds each arriving update straight into an O(model)
	// accumulator instead of materializing the cohort (requires a
	// streaming-capable aggregation rule; otherwise the server logs a
	// warning and materializes).
	Streaming bool
	// Compress offers per-frame flate compression to clients.
	Compress bool
	// Quantize offers stochastic quantization of client uploads: "",
	// "none", "int8", or "int16". Incompatible with secure-aggregation
	// (cohort-aware) defenses.
	Quantize string
	// TopK, in (0, 1), additionally sparsifies quantized uploads to the
	// top fraction of coordinates by magnitude. Requires Quantize.
	TopK float64
	// Delta offers delta-encoded global broadcasts against the client's
	// last completed round.
	Delta bool
	// QuantSeed seeds the stochastic quantizer; 0 adopts the checkpoint's
	// recorded seed when resuming, else Config.Seed.
	QuantSeed int64
	// Pipeline overlaps each round's checkpoint write with the next
	// round's broadcast. The persisted chain is bit-identical to the
	// sequential one; only the round tail latency changes.
	Pipeline bool
	// Logf receives fault-tolerance progress lines (optional).
	Logf func(format string, args ...any)
	// AdminAddr, if non-empty, starts an HTTP observability listener
	// serving /metrics (Prometheus text), /healthz (JSON federation
	// status), and /debug/pprof/. Use ":0" for an ephemeral port.
	AdminAddr string
}

// ErrDraining is returned by Serve after a graceful Shutdown: the
// federation stopped cleanly with its state checkpointed, not because of a
// failure.
var ErrDraining = flnet.ErrDraining

// MiddlewareServer is a running TCP FL server.
type MiddlewareServer struct {
	inner *flnet.Server
	admin *telemetry.AdminServer
}

// buildServerSide is the server half of the federation fc describes: the
// assembly's initial model and the named defense, wrapped in the configured
// aggregation rule and bound to that model. It returns the defense and the
// initial global state. The single-tenant server and a service-mode job both
// start from this one construction, which is what keeps them bit-identical.
func buildServerSide(fc fl.Config, defenseName string) (fl.Defense, []float64, error) {
	m, err := fc.BuildModel()
	if err != nil {
		return nil, nil, err
	}
	def, err := defense.New(defenseName, fc.DefenseSeed(), fc.Clients)
	if err != nil {
		return nil, nil, err
	}
	def, err = fl.WithAggregator(def, fc.Aggregator, fc.MaxByzantine)
	if err != nil {
		return nil, nil, err
	}
	if err := def.Bind(fl.InfoOf(m)); err != nil {
		return nil, nil, err
	}
	return def, m.StateVector(), nil
}

// NewMiddlewareServer builds the initial global model for the configured
// dataset and starts listening.
func NewMiddlewareServer(opts ServerOptions) (*MiddlewareServer, error) {
	cfg := opts.Config.withDefaults()
	fc := cfg.flConfig()
	def, initial, err := buildServerSide(fc, cfg.Defense)
	if err != nil {
		return nil, err
	}
	// The federation's series live in a registry of this server's own; the
	// admin port serves it beside the process-scoped one.
	reg := telemetry.NewRegistry()
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr:          opts.Addr,
		NumClients:    fc.Clients,
		MinClients:    opts.MinClients,
		Rounds:        fc.Rounds,
		RoundDeadline: opts.RoundDeadline,
		SampleSize:    opts.SampleSize,
		// Passed through verbatim: 0 must reach flnet so a resumed
		// federation adopts the checkpoint's recorded draw seed.
		SampleSeed:        opts.SampleSeed,
		SampleSeedDefault: fc.Seed,
		AsyncStaleness:    opts.AsyncStaleness,
		Streaming:         opts.Streaming,
		Compress:          opts.Compress,
		Quantize:          opts.Quantize,
		TopK:              opts.TopK,
		Delta:             opts.Delta,
		// Same pass-through contract as SampleSeed: 0 must reach flnet so
		// a resumed federation adopts the checkpoint's quantizer seed.
		QuantSeed:        opts.QuantSeed,
		QuantSeedDefault: fc.Seed,
		Pipeline:         opts.Pipeline,
		Defense:          def,
		InitialState:     initial,
		CheckpointPath:   opts.CheckpointPath,
		Dataset:          fc.Dataset,
		NoScreen:         opts.NoScreen,
		Screen: fl.ScreenConfig{
			ClipNorms:        opts.ClipNorms,
			QuarantineRounds: opts.QuarantineRounds,
		},
		Registry: reg,
		Logf:     opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	s := &MiddlewareServer{inner: srv}
	if opts.AdminAddr != "" {
		s.admin, err = telemetry.ServeAdmin(opts.AdminAddr, srv.Health, telemetry.Default(), reg)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return s, nil
}

// Addr returns the bound address (connect clients here).
func (s *MiddlewareServer) Addr() string { return s.inner.Addr().String() }

// AdminAddr returns the observability listener's address, or "" when
// ServerOptions.AdminAddr was empty.
func (s *MiddlewareServer) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr().String()
}

// Serve orchestrates all rounds and returns the final global state vector.
// After a Shutdown, the error is flnet.ErrDraining and the state is the
// last checkpointed global model.
func (s *MiddlewareServer) Serve(ctx context.Context) ([]float64, error) {
	return s.inner.Run(ctx)
}

// Shutdown drains the federation gracefully: no new registrants are
// admitted, the in-flight round finishes (or is abandoned when ctx
// expires), the final state is checkpointed, and live clients receive a
// drain notice telling them to reconnect after the restart. Serve returns
// flnet.ErrDraining. Call only while Serve is running.
func (s *MiddlewareServer) Shutdown(ctx context.Context) error {
	return s.inner.Shutdown(ctx)
}

// Close stops the server's listener (and the admin listener, if any).
func (s *MiddlewareServer) Close() error {
	err := s.inner.Close()
	if s.admin != nil {
		if aerr := s.admin.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// Health returns the server's current /healthz snapshot (status, round
// progress, live clients, last checkpointed round).
func (s *MiddlewareServer) Health() telemetry.Health { return s.inner.Health() }

// Reports returns the per-round cohort reports (participants, dropped
// clients, joined client errors) recorded so far.
func (s *MiddlewareServer) Reports() []flnet.RoundReport { return s.inner.Reports() }

// StartRound returns the round the federation (re)starts from: 0 for a
// fresh run, the checkpointed round after a resume.
func (s *MiddlewareServer) StartRound() int { return s.inner.StartRound() }

// ClientOptions configures a TCP middleware client process.
type ClientOptions struct {
	// Addr is the server's address.
	Addr string
	// Config must match the server's configuration.
	Config Config
	// ClientID is this participant's index in [0, Config.Clients).
	ClientID int
	// MaxRetries is the number of reconnection attempts after a network
	// fault before the client gives up. 0 means the default (5); negative
	// disables retry.
	MaxRetries int
	// BaseBackoff is the delay before the first reconnection attempt;
	// consecutive failures double it with jitter. 0 means the default
	// (100ms).
	BaseBackoff time.Duration
	// Job names the federation job this client belongs to when the server
	// runs in multi-tenant service mode; empty is fine against single-job
	// servers.
	Job string
	// PrivateCheckpointPath, if non-empty, persists the client's DINAR
	// private-layer store after every round and restores it on startup
	// from the newest intact generation. Losing this store costs the
	// client its personalization (θᵖ* never leaves the client, by
	// design), so crash safety here is the client-side half of the
	// durable-checkpoint story. Ignored for defenses without a private
	// store.
	PrivateCheckpointPath string
	// Logf receives reconnection progress lines (optional).
	Logf func(format string, args ...any)
}

// ParticipantResult reports a finished client's outcome.
type ParticipantResult struct {
	// FinalGlobalState is the last broadcast global model.
	FinalGlobalState []float64
	// Accuracy is the personalized model's test accuracy.
	Accuracy float64
}

// RunMiddlewareClient builds the client's deterministic data shard and local
// model (all processes derive the identical partition from Config.Seed),
// then participates in the federation until the server finishes.
func RunMiddlewareClient(ctx context.Context, opts ClientOptions) (*ParticipantResult, error) {
	cfg := opts.Config.withDefaults()
	fc := cfg.flConfig()
	if opts.ClientID < 0 || opts.ClientID >= fc.Clients {
		return nil, fmt.Errorf("dinar: client id %d out of range [0,%d)", opts.ClientID, fc.Clients)
	}
	split, shards, err := fc.Partition()
	if err != nil {
		return nil, err
	}
	m, err := fc.BuildModel()
	if err != nil {
		return nil, err
	}
	trainer, err := fc.BuildClient(opts.ClientID, m, shards[opts.ClientID])
	if err != nil {
		return nil, err
	}
	def, err := defense.New(cfg.Defense, fc.DefenseSeed(), fc.Clients)
	if err != nil {
		return nil, err
	}
	if err := def.Bind(fl.InfoOf(m)); err != nil {
		return nil, err
	}

	clientCfg := flnet.ClientConfig{
		Addr:        opts.Addr,
		Trainer:     trainer,
		Defense:     def,
		MaxRetries:  opts.MaxRetries,
		BaseBackoff: opts.BaseBackoff,
		Job:         opts.Job,
		Logf:        opts.Logf,
	}
	if opts.PrivateCheckpointPath != "" {
		if err := wirePrivateCheckpoints(&clientCfg, def, opts); err != nil {
			return nil, err
		}
	}
	final, err := flnet.RunClient(ctx, clientCfg)
	if err != nil {
		return nil, err
	}
	acc, _, err := trainer.Evaluate(split.Test)
	if err != nil {
		return nil, err
	}
	return &ParticipantResult{FinalGlobalState: final, Accuracy: acc}, nil
}

// privateStore is the store surface a defense must expose for private-layer
// checkpointing (the DINAR defense does; others simply skip checkpointing).
type privateStore interface {
	ExportStore(clientID int) map[int][]float64
	ImportStore(clientID int, layers map[int][]float64) error
}

// wirePrivateCheckpoints restores the defense's private-layer store from the
// newest intact checkpoint generation and hooks a durable save after every
// completed round.
func wirePrivateCheckpoints(cfg *flnet.ClientConfig, def fl.Defense, opts ClientOptions) error {
	store, ok := def.(privateStore)
	if !ok {
		return nil // nothing private to persist for this defense
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	loaded, skipped, err := checkpoint.LoadLatestValidPrivate(opts.PrivateCheckpointPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh client: nothing to restore.
	case err != nil:
		return fmt.Errorf("dinar: restore private store: %w", err)
	default:
		for _, path := range skipped {
			logf("dinar: skipping corrupt private checkpoint generation %s", path)
		}
		if loaded.ClientID != opts.ClientID {
			return fmt.Errorf("dinar: private checkpoint belongs to client %d, not %d", loaded.ClientID, opts.ClientID)
		}
		if err := store.ImportStore(opts.ClientID, loaded.Layers); err != nil {
			return fmt.Errorf("dinar: restore private store: %w", err)
		}
		logf("dinar: restored private store from round %d (generation %d)", loaded.Round, loaded.Generation)
	}
	cfg.AfterRound = func(round int) {
		err := checkpoint.SavePrivateFile(opts.PrivateCheckpointPath, &checkpoint.PrivateLayers{
			ClientID: opts.ClientID,
			Round:    round,
			Layers:   store.ExportStore(opts.ClientID),
		})
		if err != nil {
			// A failed save must not kill the round; the previous
			// generation is still durable.
			logf("dinar: private checkpoint after round %d: %v", round, err)
		}
	}
	return nil
}

// ChoosePrivateLayer runs DINAR's initialization phase (§4.1): every client
// trains a local probe model on its own shard, measures per-layer
// membership leakage (Jensen–Shannon generalization gap), votes for the most
// sensitive layer, and the federation agrees via the Byzantine-tolerant
// broadcast vote. It returns the agreed layer index.
//
// byzantine, if non-empty, marks client indices that vote arbitrarily.
func ChoosePrivateLayer(ctx context.Context, cfg Config, byzantine []int) (int, error) {
	fc := cfg.flConfig()
	probes, nonMembers, err := voteProbes(fc)
	if err != nil {
		return -1, err
	}
	byz := make(map[int]bool, len(byzantine))
	for _, id := range byzantine {
		byz[id] = true
	}

	analyzer := leakage.NewAnalyzer()
	nodes := make([]consensus.Node, len(probes))
	for i, probe := range probes {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		if byz[i] {
			nodes[i] = consensus.Node{ID: i, Byzantine: true}
			continue
		}
		if _, err := probe.TrainLocal(); err != nil {
			return -1, err
		}
		// Divergence between the client's members Dᵢᵐ and non-members Dᵢⁿ.
		div, err := analyzer.LayerDivergence(probe.Model, probe.Data, nonMembers)
		if err != nil {
			return -1, err
		}
		nodes[i] = consensus.Node{ID: i, Vote: leakage.MostSensitiveLayer(div)}
	}
	res, err := consensus.Run(ctx, nodes, probes[0].Model.NumLayers(), fc.VoteRand())
	if err != nil {
		return -1, err
	}
	return res.Value, nil
}

// voteProbes builds the vote's probe clients — client i's copy of the
// federation's initial model on the shard client i trains on in the
// federation itself, IID or Dirichlet as fc says — and returns them with the
// non-member pool their leakage is measured against.
//
// The probe uses moderate SGD for a handful of epochs: enough overfitting to
// develop the member/non-member gradient gap, not so much that the leakage
// measurement degenerates — probed so every honest client's vote lands on
// the same layer. Its hyper-parameters are fixed (not taken from fc): the
// vote's stability was validated at this exact configuration, and the probe
// models are discarded afterwards.
func voteProbes(fc fl.Config) ([]*fl.Client, *data.Dataset, error) {
	const (
		probeEpochs = 8
		probeBatch  = 32
	)
	probeLR := fl.DefaultLearningRate(fc.Dataset, "sgd")
	if probeLR > 0.2 {
		probeLR = 0.2
	}
	split, shards, err := fc.Partition()
	if err != nil {
		return nil, nil, err
	}
	base, err := fc.BuildModel()
	if err != nil {
		return nil, nil, err
	}
	probes := make([]*fl.Client, len(shards))
	for i, shard := range shards {
		probes[i], err = fl.NewClient(i, base.Clone(), shard, optim.New("sgd", probeLR), probeBatch, probeEpochs, fc.ProbeRand(i))
		if err != nil {
			return nil, nil, err
		}
	}
	return probes, split.Test, nil
}
