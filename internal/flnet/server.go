package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// ServerConfig configures the middleware server.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7070". Use ":0" for an
	// ephemeral port (tests).
	Addr string
	// NumClients is the cohort size; the server waits up to IOTimeout for
	// this many registrations before round 1 (MinClients suffice after the
	// deadline).
	NumClients int
	// MinClients is the round quorum: a round aggregates as soon as every
	// live client has reported or, once RoundDeadline has passed, with any
	// set of at least MinClients updates (FedAvg sample-weights partial
	// cohorts). 0 means NumClients, i.e. no partial rounds.
	MinClients int
	// SampleSize, when positive, samples K = SampleSize of the eligible
	// (live, non-quarantined) clients into each round's cohort instead of
	// broadcasting to everyone. The draw is deterministic given
	// (SampleSeed, round, membership) — see SampleOrder — so a resumed
	// server re-draws identical cohorts. Sampled clients that fail or
	// time out are replaced from the remainder of the same deterministic
	// order (quorum fallback), unless the defense is cohort-aware (secure
	// aggregation's mask graph cannot absorb substitutes mid-round). 0
	// means every live client participates in every round.
	SampleSize int
	// SampleSeed seeds the per-round cohort draw. 0 means "unset": a
	// checkpoint resume adopts the recorded seed, otherwise
	// SampleSeedDefault applies.
	SampleSeed int64
	// SampleSeedDefault is the seed used when SampleSeed is 0 and no
	// checkpoint seed was adopted (fresh federation, or a checkpoint
	// recorded without sampling). 0 means 1. Lets callers map "unset =
	// the experiment seed" without defeating checkpoint adoption.
	SampleSeedDefault int64
	// AsyncStaleness, when positive, switches rounds to buffered async
	// collection: a straggler's update is not discarded at the round
	// boundary but buffered and folded into a later round — weighted down
	// by its age via fl.StalenessWeight — as long as it is at most
	// AsyncStaleness rounds old. Rounds complete as soon as MinClients
	// updates are accepted and never block on stragglers. 0 means
	// synchronous rounds. Incompatible with cohort-aware defenses (stale
	// updates' pairwise masks cannot cancel across cohorts).
	AsyncStaleness int
	// Streaming folds each update into an O(model) running accumulator as
	// it arrives instead of materializing the whole cohort's updates
	// (O(clients × model)). Requires a defense whose aggregation rule can
	// stream (fl.StreamingCapable); otherwise the server logs a warning,
	// increments dinar_flnet_streaming_fallback_total, and falls back to
	// materialized aggregation.
	Streaming bool
	// Rounds is the number of FL rounds to run.
	Rounds int
	// RoundDeadline bounds one round's update collection; after it expires
	// the round proceeds with a quorum and evicts stragglers. 0 means no
	// deadline: the round ends only when every live client has reported or
	// failed.
	RoundDeadline time.Duration
	// Defense is the server-side defense instance (its Aggregate hook runs
	// here). It must already be Bound to the model layout.
	Defense fl.Defense
	// InitialState is the initial global model state vector.
	InitialState []float64
	// IOTimeout bounds individual reads/writes per connection (default 2
	// minutes).
	IOTimeout time.Duration
	// RegisterTimeout bounds the whole registration phase: once it
	// expires the federation starts with whatever quorum has registered
	// (or fails below MinClients). 0 means IOTimeout.
	RegisterTimeout time.Duration
	// MaxRejects caps rejected registration attempts (malformed hellos,
	// protocol version mismatches, duplicate ids) before the server gives
	// up, so a misbehaving peer cannot keep the accept loop spinning
	// forever. 0 means 2*NumClients+8. Connections shed by admission
	// control or turned away during a drain do not count.
	MaxRejects int
	// DrainRetryAfter is the back-off suggested to clients in drain frames
	// (Shutdown broadcast, draining registrants, admission-control sheds).
	// 0 means 1s.
	DrainRetryAfter time.Duration
	// MaxInflightRegistrations bounds how many rejoin registrations may be
	// mid-validation concurrently; connections past the bound are shed with
	// a drain frame instead of queueing behind a slow (or stalled) hello.
	// 0 means 4*NumClients+16.
	MaxInflightRegistrations int
	// RegisterRate and RegisterBurst form a token bucket over post-cohort
	// registration attempts: up to RegisterBurst immediately, refilled at
	// RegisterRate per second. Connections arriving without a token are
	// shed with a drain frame (retry later), bounding the hello-validation
	// work a reconnect storm can impose. RegisterRate 0 disables the
	// bucket; RegisterBurst 0 means 2*NumClients+8.
	RegisterRate  float64
	RegisterBurst int
	// CheckpointPath, if non-empty, persists a global-model snapshot after
	// every aggregated round; if the file already exists at startup the
	// federation resumes from the snapshot's round instead of round 0.
	CheckpointPath string
	// Pipeline overlaps each round's checkpoint encode+fsync (the round
	// "tail") with the next round's broadcast and collection instead of
	// blocking the round loop on it. The snapshot is deep-copied at the
	// same sequential point the blocking save would run, so the persisted
	// chain — and the federation's arithmetic — is bit-identical to the
	// sequential mode; only the wall-clock overlap changes. The round
	// loop stalls only when a round finishes before the previous write
	// does (PipelineStallSeconds measures that).
	Pipeline bool
	// Dataset tags checkpoints; resuming from a snapshot recorded for a
	// different dataset is an error. Optional.
	Dataset string
	// NoScreen disables the Byzantine update screen. By default every
	// round's updates are validated (shape, NaN/Inf) before aggregation,
	// rejected senders are evicted, and repeat offenders are quarantined.
	NoScreen bool
	// Screen configures the update screen when screening is enabled; the
	// zero value selects the fl.ScreenConfig defaults.
	Screen fl.ScreenConfig
	// Listener, if non-nil, is used instead of listening on Addr — tests
	// inject faultnet wrappers here. It should support SetDeadline.
	Listener net.Listener
	// Meter records aggregation costs (optional).
	Meter *metrics.CostMeter
	// Registry is the telemetry registry the server's instruments (and
	// its fl core's) register into. nil means the process-wide default
	// registry — fine for single-federation binaries, but two servers in
	// one process would merge their counters indistinguishably, so
	// service mode gives every job its own labeled registry.
	Registry *telemetry.Registry
	// Logf receives progress lines (optional). Every call site is routed
	// through one serialized event log, so Logf is never invoked
	// concurrently and always receives one whole line per call — the
	// rejoin acceptor, per-client round goroutines, and the round loop
	// can no longer interleave output mid-line.
	Logf func(format string, args ...any)
	// EventCapacity bounds the in-memory ring of recent structured
	// events (Events method). 0 means 256.
	EventCapacity int
	// Compress offers flate compression of frame payloads; each frame
	// stores whichever encoding is smaller.
	Compress bool
	// Quantize ("", "none", "int8", "int16") offers seeded stochastic
	// quantization of client uploads (and, with Delta, of the broadcast
	// itself). Dequantization is a pure function of the payload bytes, so
	// the exact streaming fold stays bit-deterministic for a fixed
	// QuantSeed. Incompatible with cohort-aware (secure-aggregation)
	// defenses, whose pairwise masks do not survive lossy encoding.
	Quantize string
	// TopK in (0,1) sparsifies quantized uploads to that fraction of
	// coordinates (largest |delta| first). 0 means dense uploads.
	TopK float64
	// Delta offers delta-encoded global broadcasts against the previous
	// round's broadcast (full state whenever a session's anchor is stale).
	Delta bool
	// QuantSeed seeds stochastic quantization. 0 means "unset": a
	// checkpoint resume adopts the recorded seed, otherwise
	// QuantSeedDefault applies (0 means 1), mirroring SampleSeed.
	QuantSeed        int64
	QuantSeedDefault int64
}

// RoundTiming is the per-phase wall-time breakdown of one round.
type RoundTiming struct {
	// Broadcast is the slowest single global-state send of the round —
	// the broadcast phase's critical path (sends run per client,
	// concurrently).
	Broadcast time.Duration
	// Wait spans the round's start to its quorum decision: client
	// training plus update collection.
	Wait time.Duration
	// Screen is the server-side update-screen duration (zero when
	// screening is disabled).
	Screen time.Duration
	// Aggregate is the defense's aggregation-rule duration.
	Aggregate time.Duration
}

// RoundReport records one round's cohort outcome.
type RoundReport struct {
	// Round is the 0-based round index.
	Round int
	// Participants lists the client ids whose updates were aggregated.
	Participants []int
	// Dropped lists the client ids evicted during the round (stragglers
	// past the deadline, dead connections, protocol violations, poisoners
	// rejected by the screen). A dropped client may rejoin in a later
	// round.
	Dropped []int
	// Rejected lists the client ids whose updates the screen rejected this
	// round (NaN/Inf payloads, shape mismatches, over-norm deltas).
	// Rejected clients are evicted; they may rejoin, but stay quarantined.
	Rejected []int
	// Quarantined lists the client ids whose updates were excluded because
	// the client is serving a quarantine penalty from an earlier offense.
	Quarantined []int
	// Clipped lists the client ids whose update deltas were norm-clipped
	// before aggregation.
	Clipped []int
	// Sampled lists the round's sampled cohort ids in draw order (nil when
	// sampling is off); replacements drawn after evictions are appended.
	Sampled []int
	// Stale counts staleness-weighted updates from earlier rounds folded
	// into this round (async mode only).
	Stale int
	// Err joins the errors of every failed client in the round; it may be
	// non-nil even when the round aggregated successfully with a quorum.
	Err error
	// Timing is the round's per-phase wall-time breakdown.
	Timing RoundTiming
}

// ErrDraining is returned by Run (and reported by Shutdown callers) when
// the federation was stopped early by a graceful drain: the last completed
// round is checkpointed and the partial global state is returned alongside
// this sentinel.
var ErrDraining = errors.New("flnet: server draining")

// Server is the TCP federated-learning middleware server.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	core       *fl.Server
	screen     *fl.Screen
	startRound int
	tel        *Metrics

	// events serializes every log line and retains recent structured
	// events; all former cfg.Logf call sites route through it.
	events *telemetry.EventLog

	mu      sync.Mutex
	live    map[int]*session
	rejects int
	reports []RoundReport
	// curRound is the round currently being orchestrated; ckptRound the
	// last persisted checkpoint (-1 before the first); status the
	// /healthz lifecycle phase ("waiting", "running", "draining",
	// "drained", "done").
	curRound  int
	ckptRound int
	status    string

	// joinCh delivers sessions registered by the background acceptor to
	// the round loop; runDone unblocks the acceptor when Run returns.
	joinCh  chan *session
	runDone chan struct{}

	// ckptPending is the in-flight background checkpoint write in
	// pipelined mode (nil when none). Owned by the round-loop goroutine:
	// submitted after each aggregate, joined before the next submit, in
	// drainExit, and before Run returns.
	ckptPending *ckptPending

	// Drain state machine: drainCh closes when Shutdown begins (the round
	// loop exits at the next round boundary); drainKill closes when the
	// Shutdown context expires (the in-flight round aborts immediately).
	drainCh   chan struct{}
	drainKill chan struct{}
	drainOnce sync.Once
	killOnce  sync.Once

	// Accept-path admission control for the rejoin phase.
	admit  *tokenBucket
	regSem chan struct{}

	// streamAgg is the defense's streaming aggregator (nil means
	// materialized aggregation); cohortAware is non-nil when the defense
	// needs each round's sampled cohort announced (secure aggregation's
	// mask graph).
	streamAgg   fl.StreamingAggregator
	cohortAware fl.CohortAware

	// Async-mode state, owned by the round loop: asyncCh receives every
	// exchange result (buffered to NumClients so exchange goroutines never
	// block, whichever round consumes them), busy tracks in-flight
	// exchanges across round boundaries, and asyncBuf holds accepted late
	// updates awaiting a staleness-weighted fold.
	asyncCh  chan result
	busy     map[int]*session
	asyncBuf []*fl.Update

	// Wire-codec state: offerCaps is the capability mask offered at
	// negotiation, quantKind the configured upload
	// quantization, wireLabel the /healthz codec label, and ring the
	// recent canonical broadcasts that delta/quantized payloads anchor
	// against (nil unless quantization or delta broadcasts are offered).
	// canonEnc is the round loop's encoder for the canonical broadcast
	// delta (prepareBroadcast); only that goroutine touches it.
	offerCaps uint32
	quantKind fl.QuantKind
	wireLabel string
	ring      *bcastRing
	canonEnc  fl.DeltaEncoder
}

// tokenBucket is a minimal mutex-guarded token bucket (stdlib only): allow
// spends one token when available, tokens refill at rate per second up to
// burst. A nil bucket allows everything.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

func (b *tokenBucket) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// NewServer validates the configuration, loads a checkpoint when one is
// configured and present, and starts listening.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.NumClients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("flnet: need positive NumClients/Rounds, got %d/%d", cfg.NumClients, cfg.Rounds)
	}
	if cfg.MinClients == 0 {
		cfg.MinClients = cfg.NumClients
	}
	if cfg.MinClients < 1 || cfg.MinClients > cfg.NumClients {
		return nil, fmt.Errorf("flnet: MinClients %d outside [1,%d]", cfg.MinClients, cfg.NumClients)
	}
	if cfg.SampleSize < 0 || cfg.SampleSize > cfg.NumClients {
		return nil, fmt.Errorf("flnet: SampleSize %d outside [0,%d]", cfg.SampleSize, cfg.NumClients)
	}
	if cfg.SampleSize > 0 && cfg.MinClients > cfg.SampleSize {
		return nil, fmt.Errorf("flnet: quorum MinClients %d exceeds sample size %d: no round could ever reach quorum; lower MinClients or raise SampleSize",
			cfg.MinClients, cfg.SampleSize)
	}
	if cfg.AsyncStaleness < 0 {
		return nil, fmt.Errorf("flnet: negative AsyncStaleness %d", cfg.AsyncStaleness)
	}
	if cfg.Defense == nil {
		return nil, fmt.Errorf("flnet: nil defense")
	}
	cohortAware, _ := cfg.Defense.(fl.CohortAware)
	if cohortAware != nil && cfg.AsyncStaleness > 0 {
		return nil, fmt.Errorf("flnet: defense %q is cohort-aware (secure aggregation): staleness-buffered updates would carry pairwise masks from an older cohort that cannot cancel; run it synchronously",
			cfg.Defense.Name())
	}
	offerCaps, quantKind, err := wireOffer(&cfg, cohortAware)
	if err != nil {
		return nil, err
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 2 * time.Minute
	}
	if cfg.RegisterTimeout == 0 {
		cfg.RegisterTimeout = cfg.IOTimeout
	}
	if cfg.MaxRejects == 0 {
		cfg.MaxRejects = 2*cfg.NumClients + 8
	}
	if cfg.DrainRetryAfter == 0 {
		cfg.DrainRetryAfter = time.Second
	}
	if cfg.MaxInflightRegistrations == 0 {
		cfg.MaxInflightRegistrations = 4*cfg.NumClients + 16
	}
	if cfg.RegisterBurst == 0 {
		cfg.RegisterBurst = 2*cfg.NumClients + 8
	}
	if cfg.EventCapacity == 0 {
		cfg.EventCapacity = 256
	}
	// Every log line funnels through one serialized event log; the
	// user-supplied sink (if any) is invoked under its mutex and always
	// receives complete lines.
	var sink func(line string)
	if logf := cfg.Logf; logf != nil {
		sink = func(line string) { logf("%s", line) }
	}
	events := telemetry.NewEventLog(cfg.EventCapacity, sink)

	// One instrument bundle per registry: single-federation binaries keep
	// the process-wide default; service-mode jobs each bring their own
	// labeled registry so concurrent federations never merge counters.
	tel := NewMetrics(cfg.Registry)
	flTel := fl.NewMetrics(cfg.Registry)

	var screen *fl.Screen
	if !cfg.NoScreen {
		screen = fl.NewScreen(cfg.Screen)
		screen.SetMetrics(flTel)
	}

	state := cfg.InitialState
	startRound := 0
	var (
		resumeAsync []checkpoint.AsyncUpdate
		streamNorms []float64
		resumeWire  *checkpoint.WireState
	)
	if cfg.CheckpointPath != "" {
		snap, skipped, err := checkpoint.LoadLatestValid(cfg.CheckpointPath)
		for _, p := range skipped {
			events.Eventf(-1, -1, "flnet: skipping corrupt checkpoint generation %s", p)
		}
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Fresh federation; the first round writes the file.
		case err != nil:
			return nil, fmt.Errorf("flnet: resume: %w", err)
		default:
			if cfg.Dataset != "" && snap.Dataset != "" && snap.Dataset != cfg.Dataset {
				return nil, fmt.Errorf("flnet: checkpoint is for dataset %q, server runs %q", snap.Dataset, cfg.Dataset)
			}
			if len(snap.State) != len(cfg.InitialState) {
				return nil, fmt.Errorf("flnet: checkpoint state has %d values, model needs %d", len(snap.State), len(cfg.InitialState))
			}
			state = snap.State
			startRound = snap.Round
			// Restore the screen's reputation state so quarantine penalties
			// survive the restart — a poisoner must not be paroled by a
			// server crash.
			if screen != nil && snap.Quarantine != nil {
				screen.ImportState(fl.ScreenState{
					Offenses:     snap.Quarantine.Offenses,
					BlockedUntil: snap.Quarantine.BlockedUntil,
					Norms:        snap.Quarantine.Norms,
				})
			}
			// Re-drawing bit-identical cohorts after a crash needs the
			// original sampling draw: adopt the recorded seed when the
			// config left it unset, and refuse a conflicting one — a
			// silently different draw would break replayability.
			if snap.SampleSeed != 0 {
				switch {
				case cfg.SampleSeed == 0:
					cfg.SampleSeed = snap.SampleSeed
				case cfg.SampleSeed != snap.SampleSeed:
					return nil, fmt.Errorf("flnet: checkpoint sampled with seed %d, config says %d", snap.SampleSeed, cfg.SampleSeed)
				}
			}
			if snap.SampleSize != 0 && cfg.SampleSize != 0 && snap.SampleSize != cfg.SampleSize {
				return nil, fmt.Errorf("flnet: checkpoint sampled %d clients per round, config says %d", snap.SampleSize, cfg.SampleSize)
			}
			// Clients reconstruct quantized payloads with the federation's
			// quantization seed: adopt the recorded one like SampleSeed, and
			// refuse a conflicting configuration — reconstructions would
			// silently diverge from the recorded broadcast chain.
			if snap.Wire != nil {
				if snap.Wire.QuantSeed != 0 {
					switch {
					case cfg.QuantSeed == 0:
						cfg.QuantSeed = snap.Wire.QuantSeed
					case cfg.QuantSeed != snap.Wire.QuantSeed:
						return nil, fmt.Errorf("flnet: checkpoint quantized with seed %d, config says %d", snap.Wire.QuantSeed, cfg.QuantSeed)
					}
				}
				resumeWire = snap.Wire
			}
			resumeAsync = snap.Async
			streamNorms = snap.StreamNorms
			events.Eventf(startRound, -1, "flnet: resuming from checkpoint %s at round %d (generation %d)",
				cfg.CheckpointPath, startRound, snap.Generation)
		}
	}
	// Normalized after checkpoint adoption so 0 stays the "unset" marker
	// until the recorded seed has had its chance.
	if cfg.SampleSize > 0 && cfg.SampleSeed == 0 {
		if cfg.SampleSeed = cfg.SampleSeedDefault; cfg.SampleSeed == 0 {
			cfg.SampleSeed = 1
		}
	}
	if quantKind != fl.QuantNone && cfg.QuantSeed == 0 {
		if cfg.QuantSeed = cfg.QuantSeedDefault; cfg.QuantSeed == 0 {
			cfg.QuantSeed = 1
		}
	}

	core, err := fl.NewServer(state, cfg.Defense, cfg.Meter)
	if err != nil {
		return nil, err
	}
	core.SetMetrics(flTel)
	core.SetRound(startRound)
	if screen != nil {
		core.SetScreen(screen)
	}

	var streamAgg fl.StreamingAggregator
	if cfg.Streaming {
		streamAgg = fl.StreamingOf(cfg.Defense)
		if streamAgg == nil {
			tel.StreamingFallback.Inc()
			events.Eventf(-1, -1, "flnet: defense %q has no streaming aggregation rule; falling back to materialized aggregation",
				cfg.Defense.Name())
		} else if nc, ok := streamAgg.(fl.NormCarrier); ok && len(streamNorms) > 0 {
			// The streaming norm bound calibrates against a trailing
			// cross-round window; restore it so the resumed server clips
			// with the same bound the crashed one would have.
			nc.ImportNorms(streamNorms)
		}
	}

	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("flnet: listen %s: %w", cfg.Addr, err)
		}
	}
	srv := &Server{
		cfg:         cfg,
		ln:          ln,
		core:        core,
		screen:      screen,
		startRound:  startRound,
		tel:         tel,
		events:      events,
		live:        make(map[int]*session, cfg.NumClients),
		curRound:    startRound,
		ckptRound:   -1,
		status:      "waiting",
		joinCh:      make(chan *session, cfg.NumClients),
		runDone:     make(chan struct{}),
		drainCh:     make(chan struct{}),
		drainKill:   make(chan struct{}),
		admit:       newTokenBucket(cfg.RegisterRate, cfg.RegisterBurst),
		regSem:      make(chan struct{}, cfg.MaxInflightRegistrations),
		streamAgg:   streamAgg,
		cohortAware: cohortAware,
		offerCaps:   offerCaps,
		quantKind:   quantKind,
		wireLabel:   CapsLabel(offerCaps),
	}
	if offerCaps&(CapQuantInt8|CapQuantInt16|CapDelta) != 0 {
		// The ring must cover every round a live anchor can lag behind:
		// synchronous sessions lag at most a round or two, async exchanges
		// up to AsyncStaleness rounds.
		srv.ring = newBcastRing(max(8, cfg.AsyncStaleness+2))
		if resumeWire != nil && len(resumeWire.Bcast) == len(state) && resumeWire.BcastRound >= 0 {
			// Resume the canonical broadcast chain from the recorded anchor:
			// reconnecting clients whose LastRound matches get deltas against
			// the exact state they hold.
			srv.ring.put(resumeWire.BcastRound, resumeWire.Bcast)
		}
	}
	if cfg.AsyncStaleness > 0 {
		srv.asyncCh = make(chan result, cfg.NumClients)
		srv.busy = make(map[int]*session, cfg.NumClients)
		for _, au := range resumeAsync {
			srv.asyncBuf = append(srv.asyncBuf, &fl.Update{
				ClientID:   au.ClientID,
				Round:      au.Round,
				State:      au.State,
				NumSamples: au.NumSamples,
			})
		}
	}
	return srv, nil
}

// Shutdown gracefully drains the server: registration stops admitting new
// clients (they get drain frames), the round loop exits at the next round
// boundary with the last completed round checkpointed, and every live
// client is notified with a drain frame. If ctx expires before the
// in-flight round completes, the round is aborted instead of awaited.
// Shutdown returns once Run has returned (Run reports ErrDraining);
// calling it again is a no-op that waits the same way. Shutdown must not
// be called before Run — with no round loop to drain, it blocks until ctx
// expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		wasWaiting := s.status == "waiting"
		if wasWaiting || s.status == "running" {
			s.status = "draining"
		}
		s.mu.Unlock()
		s.logf(-1, -1, "flnet: drain requested")
		close(s.drainCh)
		// Unblock a registration-phase Accept so a server draining before
		// its cohort formed exits promptly. Mid-run the rejoin acceptor
		// keeps running (it sheds registrants with drain frames) until
		// Run's deferred listener close stops it.
		if wasWaiting {
			type deadliner interface{ SetDeadline(time.Time) error }
			if d, ok := s.ln.(deadliner); ok {
				d.SetDeadline(time.Now()) //nolint:errcheck // best effort
			}
		}
	})
	select {
	case <-s.runDone:
		return nil
	case <-ctx.Done():
		s.killOnce.Do(func() {
			s.logf(-1, -1, "flnet: drain deadline expired; aborting in-flight round")
			close(s.drainKill)
		})
		<-s.runDone
		return ctx.Err()
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// logf records one structured, serialized log event; round/client are -1
// when not applicable.
func (s *Server) logf(round, client int, format string, args ...any) {
	s.events.Eventf(round, client, format, args...)
}

// Events returns the most recent structured log events, oldest first.
func (s *Server) Events() []telemetry.Event { return s.events.Events() }

// Health returns the server's /healthz snapshot: lifecycle status, the
// round being orchestrated, live vs configured client counts, and the
// last checkpointed round.
func (s *Server) Health() telemetry.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return telemetry.Health{
		Status:            s.status,
		Round:             s.curRound,
		Rounds:            s.cfg.Rounds,
		RegisteredClients: len(s.live),
		NumClients:        s.cfg.NumClients,
		MinClients:        s.cfg.MinClients,
		StartRound:        s.startRound,
		CheckpointRound:   s.ckptRound,
		Wire:              s.wireLabel,
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener.
func (s *Server) Close() error { return s.ln.Close() }

// StartRound returns the round the federation (re)starts from: 0 for a
// fresh run, the checkpointed round after a resume.
func (s *Server) StartRound() int { return s.startRound }

// Reports returns a copy of the per-round cohort reports recorded so far.
func (s *Server) Reports() []RoundReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RoundReport(nil), s.reports...)
}

// session is one connected client.
type session struct {
	conn     net.Conn
	clientID int
	// lastRound is the last round the client reported completing in its
	// Hello (-1 for a fresh client).
	lastRound int
	// codec is the session's negotiated wire codec (nil for a peer that
	// advertised no capabilities).
	codec *Codec
	// anchor is the round whose canonical broadcast the peer is known to
	// hold — its Hello LastRound until the first Global goes out, then the
	// round of the last successfully sent Global. Only the session's
	// single in-flight exchange (serialized by the round loop) touches it.
	anchor int
}

// Run accepts registrations, orchestrates all rounds (tolerating client
// failure per MinClients/RoundDeadline), sends the final model, and
// returns the final global state.
func (s *Server) Run(ctx context.Context) ([]float64, error) {
	defer s.ln.Close()
	defer close(s.runDone)

	// Cancel blocking Accept/Read calls when ctx ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.ln.Close()
		case <-stop:
		}
	}()

	if err := s.acceptCohort(ctx); err != nil {
		if errors.Is(err, ErrDraining) {
			// Drained while waiting for the cohort: no round ran, so the
			// resumed (or initial) state is already the latest checkpoint.
			state, derr := s.drainExit(s.startRound)
			s.closeLive()
			return state, derr
		}
		return nil, err
	}
	defer s.closeLive()

	// Keep accepting for the rest of the run so evicted clients can
	// rejoin and resync. Run joins the acceptor before returning: a
	// registration still holding an accepted socket after Run returns
	// would keep the port busy and break an immediate same-address
	// restart (Linux only rebinds over TIME_WAIT, not ESTABLISHED).
	quit := make(chan struct{})
	rejoinDone := make(chan struct{})
	go func() {
		defer close(rejoinDone)
		s.acceptRejoins(ctx, quit)
	}()
	defer func() {
		s.ln.Close() // unblock Accept; Run's outer defer close is then a no-op
		close(quit)  // abort in-flight registrations
		<-rejoinDone
	}()
	// Backstop for error exits: never leave a background checkpoint write
	// running past Run (the success and drain paths join explicitly and
	// surface the write's error; this re-join is then a no-op).
	defer s.joinCheckpoint() //nolint:errcheck // error surfaced on non-backstop paths

	for round := s.startRound; round < s.cfg.Rounds; round++ {
		if s.draining() {
			return s.drainExit(round)
		}
		s.mu.Lock()
		s.curRound = round
		s.status = "running"
		s.mu.Unlock()
		s.tel.RoundsStarted.Inc()
		streaming := s.streamAgg != nil
		if streaming {
			if err := s.core.BeginRound(s.streamAgg); err != nil {
				return nil, fmt.Errorf("flnet: round %d: %w", round, err)
			}
		}
		var (
			updates []*fl.Update
			report  RoundReport
			err     error
		)
		if s.cfg.AsyncStaleness > 0 {
			updates, report, err = s.runRoundAsync(ctx, round)
		} else {
			updates, report, err = s.runRound(ctx, round)
		}
		if err != nil {
			if streaming {
				// Abandon the armed streaming round; screen offenses booked
				// during it stick.
				s.core.AbortRound()
			}
			s.mu.Lock()
			s.reports = append(s.reports, report)
			s.mu.Unlock()
			if errors.Is(err, ErrDraining) {
				// The drain deadline expired mid-round: abandon the round
				// (its updates were never aggregated — the checkpoint chain
				// ends at the last completed round) and exit the drain path.
				_, derr := s.drainExit(round)
				return s.core.GlobalState(), derr
			}
			return nil, fmt.Errorf("flnet: round %d: %w", round, err)
		}
		var aggErr error
		if streaming {
			// The round's updates were folded one at a time as they arrived
			// (runRound → core.Offer); finalize the accumulator.
			aggErr = s.core.FinishRound()
		} else {
			// Arrival order is nondeterministic; aggregate in client order so a
			// federation's result is reproducible run-to-run (and across a
			// checkpoint resume).
			sort.Slice(updates, func(i, j int) bool { return updates[i].ClientID < updates[j].ClientID })
			aggErr = s.core.Aggregate(updates)
			// The cohort's update payloads are dead once aggregated (every
			// aggregation rule returns freshly allocated state): recycle
			// their buffers so the next round's reads reuse them instead of
			// re-allocating O(cohort × model).
			for _, u := range updates {
				PutState(u.State)
				u.State = nil
			}
		}
		agg := s.core.LastAggTiming()
		report.Timing.Screen = agg.Screen
		report.Timing.Aggregate = agg.Aggregate
		s.applyScreenOutcome(round, &report)
		s.mu.Lock()
		s.reports = append(s.reports, report)
		s.mu.Unlock()
		if aggErr != nil {
			return nil, aggErr
		}
		s.tel.RoundsCompleted.Inc()
		if s.cfg.CheckpointPath != "" {
			if s.cfg.Pipeline {
				// Join the previous round's background write (its error
				// surfaces here, one round late), then hand this round's
				// snapshot to the writer and move straight on to the next
				// round's broadcast.
				if err := s.joinCheckpoint(); err != nil {
					return nil, fmt.Errorf("flnet: round %d: checkpoint: %w", round, err)
				}
				s.submitCheckpoint()
			} else if err := s.saveCheckpoint(); err != nil {
				return nil, fmt.Errorf("flnet: round %d: %w", round, err)
			}
		}
		s.logf(round, -1, "flnet: round %d aggregated %d updates (dropped %d) [broadcast %s wait %s screen %s aggregate %s]",
			round, len(report.Participants), len(report.Dropped),
			report.Timing.Broadcast.Round(time.Microsecond), report.Timing.Wait.Round(time.Microsecond),
			report.Timing.Screen.Round(time.Microsecond), report.Timing.Aggregate.Round(time.Microsecond))
	}
	// The final round's pipelined write must land before Run reports
	// success — callers restart from this checkpoint.
	if err := s.joinCheckpoint(); err != nil {
		return nil, fmt.Errorf("flnet: final checkpoint: %w", err)
	}
	s.mu.Lock()
	s.curRound = s.cfg.Rounds
	s.status = "done"
	s.mu.Unlock()

	final := s.core.GlobalState()
	s.mu.Lock()
	finalSessions := make([]*session, 0, len(s.live))
	for _, sess := range s.live {
		finalSessions = append(finalSessions, sess)
	}
	s.mu.Unlock()
	var doneErrs []error
	for _, sess := range finalSessions {
		msg := &Message{Kind: KindDone, Round: s.cfg.Rounds, State: final}
		if err := s.send(sess, msg); err != nil {
			// The federation already converged; a client that cannot
			// receive Done lost only its own final install.
			doneErrs = append(doneErrs, fmt.Errorf("client %d: %w", sess.clientID, err))
		}
	}
	if len(doneErrs) > 0 {
		s.logf(s.cfg.Rounds, -1, "flnet: done broadcast: %v", errors.Join(doneErrs...))
	}
	return final, nil
}

// closeLive closes every live session's connection and empties the live
// set (keeping the live-clients gauge truthful after Run returns).
func (s *Server) closeLive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sess := range s.live {
		sess.conn.Close()
		delete(s.live, id)
	}
	s.tel.LiveClients.Set(0)
}

// saveCheckpoint persists the current global state and screen reputation as
// a new checkpoint generation, blocking until the write is durable.
func (s *Server) saveCheckpoint() error {
	return s.writeSnapshot(s.buildSnapshot())
}

// buildSnapshot deep-copies the federation's persistent state into a
// checkpoint snapshot. Every buffer the snapshot references is owned by
// the snapshot alone — the async-buffer update states in particular are
// copied, because the round loop recycles those buffers (PutState) when
// a buffered update folds into a later round, and pipelined mode encodes
// the snapshot concurrently with that loop.
func (s *Server) buildSnapshot() *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Dataset: s.cfg.Dataset,
		Round:   s.core.Round(),
		State:   s.core.GlobalState(),
	}
	if s.screen != nil {
		st := s.screen.ExportState()
		snap.Quarantine = &checkpoint.QuarantineState{
			Offenses:     st.Offenses,
			BlockedUntil: st.BlockedUntil,
			Norms:        st.Norms,
		}
	}
	// Sampling and async state ride along so a resumed server re-draws the
	// same cohorts and replays buffered stragglers: exact across a graceful
	// drain; across a hard crash the buffer reflects the last completed
	// round's save (in-flight exchanges are lost either way — the clients
	// redial and re-train).
	snap.SampleSeed = s.cfg.SampleSeed
	snap.SampleSize = s.cfg.SampleSize
	for _, u := range s.asyncBuf {
		snap.Async = append(snap.Async, checkpoint.AsyncUpdate{
			ClientID:   u.ClientID,
			Round:      u.Round,
			NumSamples: u.NumSamples,
			State:      append([]float64(nil), u.State...),
		})
	}
	if nc, ok := s.streamAgg.(fl.NormCarrier); ok {
		snap.StreamNorms = nc.ExportNorms()
	}
	// The codec configuration (and the broadcast-chain anchor, when deltas
	// or quantization are live) rides along so a resumed server honors
	// in-flight negotiations — see checkpoint.WireState.
	if s.offerCaps != 0 {
		ws := &checkpoint.WireState{
			Compress:  s.cfg.Compress,
			Quantize:  s.quantKind.String(),
			TopK:      s.cfg.TopK,
			Delta:     s.cfg.Delta,
			QuantSeed: s.cfg.QuantSeed,
		}
		if s.ring != nil {
			if round, bcast := s.ring.latest(); bcast != nil {
				ws.BcastRound = round
				ws.Bcast = append([]float64(nil), bcast...)
			}
		}
		snap.Wire = ws
	}
	return snap
}

// writeSnapshot persists snap as a new checkpoint generation and advances
// the checkpointed-round watermark. Safe to call off the round loop: it
// touches only the snapshot and mu-guarded fields.
func (s *Server) writeSnapshot(snap *checkpoint.Snapshot) error {
	start := time.Now()
	if err := checkpoint.SaveFile(s.cfg.CheckpointPath, snap); err != nil {
		return err
	}
	s.tel.RoundTailSeconds.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	if snap.Round > s.ckptRound {
		s.ckptRound = snap.Round
	}
	s.mu.Unlock()
	return nil
}

// ckptPending is one in-flight background checkpoint write.
type ckptPending struct {
	done     chan struct{}
	err      error
	writeDur time.Duration
}

// submitCheckpoint starts a background write of the current state's
// snapshot. The snapshot is built synchronously — at the exact point the
// blocking save would have run, so the persisted chain is bit-identical
// to sequential mode — and only the encode+fsync overlaps the next
// round. At most one write is in flight: callers join the previous one
// first (Run's round loop, drainExit).
func (s *Server) submitCheckpoint() {
	snap := s.buildSnapshot()
	p := &ckptPending{done: make(chan struct{})}
	s.ckptPending = p
	go func() {
		start := time.Now()
		p.err = s.writeSnapshot(snap)
		p.writeDur = time.Since(start)
		close(p.done)
	}()
}

// joinCheckpoint blocks until the in-flight background checkpoint write
// (if any) completes, records the pipeline's stall/overlap histograms,
// and returns the write's error. The overlap — how much of the write ran
// while the round loop was doing useful work — is the write duration
// minus the time this join spent blocked.
func (s *Server) joinCheckpoint() error {
	p := s.ckptPending
	if p == nil {
		return nil
	}
	s.ckptPending = nil
	stallStart := time.Now()
	<-p.done
	stall := time.Since(stallStart)
	overlap := p.writeDur - stall
	if overlap < 0 {
		overlap = 0
	}
	s.tel.PipelineStallSeconds.Observe(stall.Seconds())
	s.tel.PipelineOverlapSeconds.Observe(overlap.Seconds())
	return p.err
}

// drainExit finishes a graceful drain: the final checkpoint is written (a
// no-op when the per-round save already covers the current round), every
// live client gets a drain frame telling it to come back after the restart,
// and Run returns the partial global state alongside ErrDraining.
func (s *Server) drainExit(round int) ([]float64, error) {
	var errs []error
	// Sweep results that arrived since the last round closed into the async
	// buffer so the final checkpoint carries them; exchanges still in flight
	// are lost (their clients redial after the restart).
	if s.asyncCh != nil {
	sweep:
		for {
			select {
			case res := <-s.asyncCh:
				if s.busy[res.sess.clientID] == res.sess {
					delete(s.busy, res.sess.clientID)
				}
				if res.err == nil {
					s.asyncBuf = append(s.asyncBuf, res.u)
				}
			default:
				break sweep
			}
		}
		s.tel.AsyncBuffered.Set(int64(len(s.asyncBuf)))
	}
	// A pipelined write may still be in flight; land it before deciding
	// whether a final save is needed (it usually already covers the last
	// completed round).
	if err := s.joinCheckpoint(); err != nil {
		errs = append(errs, err)
	}
	if s.cfg.CheckpointPath != "" {
		s.mu.Lock()
		behind := s.ckptRound < s.core.Round()
		s.mu.Unlock()
		if behind {
			if err := s.saveCheckpoint(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	s.mu.Lock()
	s.curRound = round
	s.status = "drained"
	sessions := make([]*session, 0, len(s.live))
	for _, sess := range s.live {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	retryAfter := int(s.cfg.DrainRetryAfter / time.Millisecond)
	for _, sess := range sessions {
		// Best effort: the client's read will fail when the conn closes
		// anyway; the drain frame just turns that into a polite back-off.
		_ = s.send(sess, &Message{Kind: KindDrain, RetryAfterMs: retryAfter})
		s.tel.DrainNotices.Inc()
	}
	s.logf(round, -1, "flnet: drained before round %d (%d clients notified, checkpoint at round %d)",
		round, len(sessions), s.ckptRound)
	if len(errs) > 0 {
		return s.core.GlobalState(), fmt.Errorf("%w: final checkpoint: %v", ErrDraining, errors.Join(errs...))
	}
	return s.core.GlobalState(), ErrDraining
}

// acceptCohort waits for NumClients hello frames, bounded by an overall
// RegisterTimeout deadline: once the deadline passes, a quorum of
// MinClients suffices to start the federation.
func (s *Server) acceptCohort(ctx context.Context) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := s.ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(s.cfg.RegisterTimeout)) //nolint:errcheck // best effort
		defer d.SetDeadline(time.Time{})                     //nolint:errcheck
	}
	for {
		if s.draining() {
			return ErrDraining
		}
		s.mu.Lock()
		registered := len(s.live)
		s.mu.Unlock()
		if registered >= s.cfg.NumClients {
			return nil
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if s.draining() {
				return ErrDraining
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if registered >= s.cfg.MinClients {
					s.logf(-1, -1, "flnet: registration deadline passed; starting with %d/%d clients", registered, s.cfg.NumClients)
					return nil
				}
				return fmt.Errorf("flnet: only %d/%d clients registered within %s (quorum %d)",
					registered, s.cfg.NumClients, s.cfg.RegisterTimeout, s.cfg.MinClients)
			}
			return fmt.Errorf("flnet: accept: %w", err)
		}
		if _, err := s.register(conn); err != nil {
			if errors.Is(err, errTooManyRejects) {
				return err
			}
		}
	}
}

// errTooManyRejects aborts registration once MaxRejects attempts failed.
var errTooManyRejects = errors.New("flnet: too many rejected registration attempts")

// register reads and validates one Hello frame. On success the session is
// added to the live set; on failure the registrant gets a KindError frame,
// the connection is closed, and the reject counter advances.
func (s *Server) register(conn net.Conn) (*session, error) {
	reject := func(reason string) error {
		s.sendError(conn, reason)
		conn.Close()
		s.mu.Lock()
		s.rejects++
		tooMany := s.rejects > s.cfg.MaxRejects
		s.mu.Unlock()
		s.tel.RegistrationsRejected.Inc()
		s.logf(-1, -1, "flnet: rejected registrant from %v: %s", conn.RemoteAddr(), reason)
		if tooMany {
			return fmt.Errorf("%w (%d)", errTooManyRejects, s.cfg.MaxRejects)
		}
		return fmt.Errorf("flnet: rejected registrant: %s", reason)
	}

	conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	msg, err := ReadHello(conn)
	if err != nil {
		return nil, reject("malformed registration: want a hello frame")
	}
	if msg.Version != ProtocolVersion {
		return nil, reject(fmt.Sprintf("protocol version %d not supported, server speaks %d", msg.Version, ProtocolVersion))
	}
	if msg.ClientID < 0 || msg.ClientID >= s.cfg.NumClients {
		return nil, reject(fmt.Sprintf("client id %d outside [0,%d)", msg.ClientID, s.cfg.NumClients))
	}
	s.mu.Lock()
	_, dup := s.live[msg.ClientID]
	s.mu.Unlock()
	if dup {
		return nil, reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
	}
	sess := &session{conn: conn, clientID: msg.ClientID, lastRound: msg.LastRound, anchor: msg.LastRound}
	// Codec negotiation: the intersection of the server's offer and the
	// client's advertised capabilities. A peer that advertises nothing gets
	// no ack and a codec-free session. The ack MUST be written before the
	// session becomes visible to the round loop — a concurrently sampled
	// cohort could otherwise race a coded Global ahead of the ack.
	if caps := negotiateCaps(s.offerCaps, msg.WireCaps); caps != 0 {
		ack := &Message{Kind: KindWire, Version: ProtocolVersion, WireCaps: caps,
			QuantSeed: s.cfg.QuantSeed, TopK: s.cfg.TopK}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
		if err := WriteMessage(conn, ack); err != nil {
			conn.Close()
			return nil, fmt.Errorf("flnet: wire ack to client %d: %w", msg.ClientID, err)
		}
		sess.codec = NewCodec(caps, s.cfg.QuantSeed, s.cfg.TopK, s.sessionBase(sess))
	}
	s.mu.Lock()
	if _, dup := s.live[msg.ClientID]; dup {
		s.mu.Unlock()
		// Lost the insert race against a concurrent registration for the
		// same id. An error frame carries no state, so it reads the same
		// under whatever codec was just acked.
		return nil, reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
	}
	s.live[msg.ClientID] = sess
	s.tel.LiveClients.Set(int64(len(s.live)))
	s.mu.Unlock()
	return sess, nil
}

// acceptRejoins keeps registering clients after the initial cohort formed,
// so an evicted client can reconnect and be resynced into the current
// round. Registrations are validated concurrently (bounded by
// MaxInflightRegistrations) so one stalled hello cannot head-of-line-block
// every other reconnect; the token bucket sheds reconnect storms before
// they cost validation work. It stops when the listener closes or the
// reject cap is hit.
func (s *Server) acceptRejoins(ctx context.Context, quit <-chan struct{}) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (run finished or ctx canceled)
		}
		s.mu.Lock()
		tooMany := s.rejects > s.cfg.MaxRejects
		s.mu.Unlock()
		if tooMany {
			conn.Close()
			s.logf(-1, -1, "flnet: rejoin acceptor stopping: %v", errTooManyRejects)
			return
		}
		if s.draining() {
			// Shed politely: the registrant should come back after the
			// restart, not burn its retry budget on us.
			s.sendDrain(conn)
			conn.Close()
			continue
		}
		if !s.admit.allow(time.Now()) {
			s.sendDrain(conn)
			conn.Close()
			s.tel.AdmissionShed.Inc()
			continue
		}
		select {
		case s.regSem <- struct{}{}:
		default:
			// Validation capacity exhausted (a storm of half-open
			// registrants); shed instead of queueing behind them.
			s.sendDrain(conn)
			conn.Close()
			s.tel.AdmissionShed.Inc()
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() { <-s.regSem }()
			// Abort a half-open registration the moment the run winds
			// down: closing the conn unblocks register's reads so the
			// acceptor join in Run never waits out an IO timeout.
			regDone := make(chan struct{})
			defer close(regDone)
			go func() {
				select {
				case <-quit:
					conn.Close()
				case <-regDone:
				}
			}()
			sess, err := s.register(conn)
			if err != nil {
				return
			}
			s.tel.Rejoins.Inc()
			s.logf(-1, sess.clientID, "flnet: client %d rejoined (last completed round %d)", sess.clientID, sess.lastRound)
			select {
			case s.joinCh <- sess:
			case <-quit:
				sess.conn.Close()
			case <-ctx.Done():
				sess.conn.Close()
			}
		}(conn)
	}
}

// sendDrain tells one connection the server is draining or shedding load.
func (s *Server) sendDrain(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	// Best effort: the connection is being turned away either way.
	_ = WriteMessage(conn, &Message{Kind: KindDrain, RetryAfterMs: int(s.cfg.DrainRetryAfter / time.Millisecond)})
	s.tel.DrainNotices.Inc()
}

// result is one finished exchange.
type result struct {
	sess *session
	u    *fl.Update
	err  error
	// sendDur is how long the global-state send took; the round's
	// broadcast critical path is the max over its cohort.
	sendDur time.Duration
}

// sampleCohort draws the round's cohort. Without sampling every live
// session participates (nil queue). With sampling, the eligible set is the
// live, non-quarantined membership; the first SampleSize ids of the
// deterministic draw form the cohort and the remainder — in draw order — is
// the replacement queue for the quorum fallback. exclude (optional) removes
// ids from eligibility (async mode's in-flight and already-counted
// clients).
func (s *Server) sampleCohort(round int, exclude map[int]bool) (cohort, queue []*session, cohortIDs []int) {
	s.mu.Lock()
	liveSessions := make(map[int]*session, len(s.live))
	for id, sess := range s.live {
		liveSessions[id] = sess
	}
	s.mu.Unlock()

	if s.cfg.SampleSize <= 0 {
		for id, sess := range liveSessions {
			if exclude[id] {
				continue
			}
			cohort = append(cohort, sess)
		}
		return cohort, nil, nil
	}
	ids := make([]int, 0, len(liveSessions))
	for id := range liveSessions {
		if exclude[id] {
			continue
		}
		if s.screen != nil && s.screen.Quarantined(id, round) {
			continue // quarantined clients are never sampled
		}
		ids = append(ids, id)
	}
	order := SampleOrder(s.cfg.SampleSeed, round, ids)
	k := s.cfg.SampleSize
	if k > len(order) {
		k = len(order)
	}
	for _, id := range order[:k] {
		cohort = append(cohort, liveSessions[id])
		cohortIDs = append(cohortIDs, id)
	}
	for _, id := range order[k:] {
		queue = append(queue, liveSessions[id])
	}
	s.tel.SampledCohort.Set(int64(len(cohort)))
	return cohort, queue, cohortIDs
}

// runRound broadcasts the global state and collects updates until every
// launched client reported, or — after RoundDeadline — a quorum of
// MinClients did. Failed or straggling clients are evicted (they may rejoin
// later); with sampling on, evicted cohort members are replaced from the
// deterministic draw's remainder so a partitioned cohort slice doesn't
// stall the round; every client error of the round is joined into the
// report. With streaming aggregation armed, each update is screened and
// folded the moment it arrives and its buffer recycled — the returned
// updates slice stays nil and the caller finalizes via core.FinishRound.
func (s *Server) runRound(ctx context.Context, round int) ([]*fl.Update, RoundReport, error) {
	bc := s.prepareBroadcast(round)
	report := RoundReport{Round: round}
	roundStart := time.Now()
	streaming := s.streamAgg != nil
	sampling := s.cfg.SampleSize > 0

	results := make(chan result, s.cfg.NumClients)
	included := make(map[*session]bool)
	pending := 0

	cohort, queue, cohortIDs := s.sampleCohort(round, nil)
	if sampling {
		report.Sampled = append([]int(nil), cohortIDs...)
	}

	// A cohort-aware defense (secure aggregation) needs the mask graph
	// restricted to the sampled cohort on both ends: announce it to the
	// server-side defense and ship it in the round's broadcast.
	// Replacements are disabled for it — a substitute's pairwise masks
	// could not cancel against the cohort the others already masked for.
	var announce []int
	if s.cohortAware != nil && sampling {
		announce = cohortIDs
		s.cohortAware.SetRoundCohort(round, cohortIDs)
	}
	refill := sampling && s.cohortAware == nil

	launch := func(sess *session) {
		included[sess] = true
		pending++
		go func() {
			u, sendDur, err := s.exchange(sess, round, bc, announce)
			results <- result{sess: sess, u: u, err: err, sendDur: sendDur}
		}()
	}
	for _, sess := range cohort {
		launch(sess)
	}

	var deadlineTimer *time.Timer
	var deadlineCh <-chan time.Time
	if s.cfg.RoundDeadline > 0 {
		deadlineTimer = time.NewTimer(s.cfg.RoundDeadline)
		defer deadlineTimer.Stop()
		deadlineCh = deadlineTimer.C
	}

	var (
		updates     []*fl.Update
		errs        []error
		got         int // updates counted toward quorum
		deadlineHit bool
	)
	evict := func(sess *session, err error) {
		s.mu.Lock()
		if s.live[sess.clientID] == sess {
			delete(s.live, sess.clientID)
			s.tel.LiveClients.Set(int64(len(s.live)))
		}
		s.mu.Unlock()
		sess.conn.Close()
		s.tel.ClientsEvicted.Inc()
		report.Dropped = append(report.Dropped, sess.clientID)
		if err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", sess.clientID, err))
		}
	}
	// refillOne replaces an evicted or straggling cohort member with the
	// next id in the deterministic draw, keeping the round on course for
	// quorum instead of stalling.
	refillOne := func() bool {
		if !refill || len(queue) == 0 {
			return false
		}
		next := queue[0]
		queue = queue[1:]
		report.Sampled = append(report.Sampled, next.clientID)
		s.tel.SampleReplacements.Inc()
		launch(next)
		return true
	}
	// restartDeadline gives freshly launched replacements their own
	// collection window; safe to Reset because the timer has fired and its
	// channel was drained whenever deadlineHit is true.
	restartDeadline := func() {
		if deadlineTimer == nil || !deadlineHit {
			return
		}
		deadlineHit = false
		deadlineTimer.Reset(s.cfg.RoundDeadline)
		deadlineCh = deadlineTimer.C
	}
	// reap consumes the n results still owed to the channel so abandoned
	// exchange goroutines can always complete their send and exit.
	reap := func(n int) {
		if n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					<-results
				}
			}()
		}
	}
	// finish drains the exchanges still in flight after a quorum decision:
	// their sessions are evicted (closing the conn unblocks the exchange
	// goroutine) and a reaper consumes their results so nothing leaks.
	finish := func() ([]*fl.Update, RoundReport, error) {
		if pending > 0 {
			s.mu.Lock()
			stragglers := make([]*session, 0, pending)
			for sess := range included {
				if s.live[sess.clientID] == sess {
					stragglers = append(stragglers, sess)
				}
			}
			s.mu.Unlock()
			for _, sess := range stragglers {
				done := false
				for _, id := range report.Participants {
					if id == sess.clientID {
						done = true
						break
					}
				}
				if !done {
					s.tel.StragglersEvicted.Inc()
					evict(sess, fmt.Errorf("no update within round deadline %s", s.cfg.RoundDeadline))
				}
			}
			reap(pending)
		}
		report.Timing.Wait = time.Since(roundStart)
		s.tel.RoundBroadcastSeconds.Observe(report.Timing.Broadcast.Seconds())
		s.tel.RoundWaitSeconds.Observe(report.Timing.Wait.Seconds())
		report.Err = errors.Join(errs...)
		return updates, report, nil
	}

	for {
		if pending == 0 {
			if got >= s.cfg.MinClients {
				return finish()
			}
			// Below quorum with nothing in flight: resample a replacement
			// when the draw has any left; otherwise, without a deadline the
			// round can never recover — with one, a rejoining client may
			// still push the round to quorum before the deadline.
			if !refillOne() && (deadlineCh == nil || deadlineHit) {
				report.Err = errors.Join(errs...)
				return nil, report, fmt.Errorf("quorum not met: %d/%d updates: %w", got, s.cfg.MinClients, report.Err)
			}
		}
		select {
		case <-ctx.Done():
			reap(pending)
			report.Err = errors.Join(errs...)
			return nil, report, ctx.Err()
		case <-s.drainKill:
			// The drain deadline expired: abort the round. In-flight
			// exchanges are reaped; their sessions close with the rest of
			// the live set when Run returns.
			reap(pending)
			report.Err = errors.Join(errs...)
			return nil, report, ErrDraining
		case res := <-results:
			pending--
			if res.sendDur > report.Timing.Broadcast {
				report.Timing.Broadcast = res.sendDur
			}
			switch {
			case res.err != nil:
				evict(res.sess, res.err)
				if refillOne() {
					restartDeadline()
				}
			case streaming:
				// Screen and fold immediately, then recycle the buffer. The
				// screen's verdicts land in the post-round report exactly
				// like the materialized path (applyScreenOutcome); a fold
				// error is structural, so the sender is evicted.
				_, err := s.core.Offer(res.u)
				PutState(res.u.State)
				res.u.State = nil
				if err != nil {
					evict(res.sess, err)
					if refillOne() {
						restartDeadline()
					}
					break
				}
				got++
				report.Participants = append(report.Participants, res.sess.clientID)
			default:
				updates = append(updates, res.u)
				got++
				report.Participants = append(report.Participants, res.sess.clientID)
			}
			if deadlineHit && got >= s.cfg.MinClients {
				return finish()
			}
			if pending == 0 && got >= s.cfg.MinClients {
				return finish()
			}
		case sess := <-s.joinCh:
			if sampling || included[sess] {
				// Sampled rounds take rejoiners from the next round's draw;
				// the session is already in the live set.
				break
			}
			launch(sess)
		case <-deadlineCh:
			deadlineHit = true
			deadlineCh = nil
			if got >= s.cfg.MinClients {
				return finish()
			}
			// Below quorum at the deadline: pessimistically assume the
			// stragglers never report and resample enough replacements to
			// reach quorum, with a fresh collection window.
			launched := 0
			for got+launched < s.cfg.MinClients && refillOne() {
				launched++
			}
			if launched > 0 {
				s.logf(round, -1, "flnet: round %d: deadline passed below quorum (%d/%d); resampled %d replacements",
					round, got, s.cfg.MinClients, launched)
				restartDeadline()
			}
		}
	}
}

// runRoundAsync is the buffered asynchronous variant of runRound: exchange
// results flow through the server-lifetime asyncCh, and stragglers are
// never evicted at a round boundary — their updates surface in a later
// round, weighted down by age (fl.StalenessWeight), until they exceed
// AsyncStaleness rounds and are dropped. The round completes as soon as
// MinClients updates (buffered or fresh) are accepted.
func (s *Server) runRoundAsync(ctx context.Context, round int) ([]*fl.Update, RoundReport, error) {
	bc := s.prepareBroadcast(round)
	report := RoundReport{Round: round}
	roundStart := time.Now()
	streaming := s.streamAgg != nil
	sampling := s.cfg.SampleSize > 0

	var (
		updates []*fl.Update
		errs    []error
		got     int
	)
	evict := func(sess *session, err error) {
		s.mu.Lock()
		if s.live[sess.clientID] == sess {
			delete(s.live, sess.clientID)
			s.tel.LiveClients.Set(int64(len(s.live)))
		}
		s.mu.Unlock()
		sess.conn.Close()
		s.tel.ClientsEvicted.Inc()
		report.Dropped = append(report.Dropped, sess.clientID)
		if err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", sess.clientID, err))
		}
	}
	// accept folds one update into the round, weighted by its age in
	// rounds; too-stale updates are dropped. sess is nil for updates
	// restored from a checkpoint.
	accept := func(u *fl.Update, sess *session) {
		staleness := round - u.Round
		if staleness > s.cfg.AsyncStaleness {
			PutState(u.State)
			u.State = nil
			s.tel.AsyncStaleDropped.Inc()
			s.logf(round, u.ClientID, "flnet: round %d: dropped update from client %d: %d rounds stale (max %d)",
				round, u.ClientID, staleness, s.cfg.AsyncStaleness)
			return
		}
		u.Staleness = staleness
		if streaming {
			_, err := s.core.Offer(u)
			PutState(u.State)
			u.State = nil
			if err != nil {
				if sess != nil {
					evict(sess, err)
				}
				return
			}
		} else {
			updates = append(updates, u)
		}
		got++
		report.Participants = append(report.Participants, u.ClientID)
		if staleness > 0 {
			report.Stale++
			s.tel.AsyncStaleAccepted.Inc()
		}
	}

	// Sweep results that arrived since the last round closed into the
	// buffer, then fold the whole buffer (each entry either counts toward
	// this round's quorum or ages out).
	consumeResult := func(res result) {
		if s.busy[res.sess.clientID] == res.sess {
			delete(s.busy, res.sess.clientID)
		}
		if res.sendDur > report.Timing.Broadcast {
			report.Timing.Broadcast = res.sendDur
		}
		if res.err != nil {
			evict(res.sess, res.err)
			return
		}
		s.asyncBuf = append(s.asyncBuf, res.u)
	}
sweep:
	for {
		select {
		case res := <-s.asyncCh:
			consumeResult(res)
		default:
			break sweep
		}
	}
	counted := make(map[int]bool, len(s.asyncBuf))
	for _, u := range s.asyncBuf {
		counted[u.ClientID] = true
		accept(u, nil)
	}
	s.asyncBuf = s.asyncBuf[:0]

	// Launch this round's cohort among clients with no exchange in flight
	// and no update already counted this round. The broadcast always goes
	// out — even when the buffer alone met quorum — so the fleet keeps
	// training; fresh results that miss this round's close are buffered
	// for the next.
	exclude := make(map[int]bool, len(s.busy)+len(counted))
	for id := range s.busy {
		exclude[id] = true
	}
	for id := range counted {
		exclude[id] = true
	}
	cohort, queue, cohortIDs := s.sampleCohort(round, exclude)
	if sampling {
		report.Sampled = append([]int(nil), cohortIDs...)
	}
	launch := func(sess *session) {
		s.busy[sess.clientID] = sess
		go func() {
			u, sendDur, err := s.exchange(sess, round, bc, nil)
			s.asyncCh <- result{sess: sess, u: u, err: err, sendDur: sendDur}
		}()
	}
	for _, sess := range cohort {
		launch(sess)
	}

	refill := sampling
	refillOne := func() bool {
		if !refill || len(queue) == 0 {
			return false
		}
		next := queue[0]
		queue = queue[1:]
		report.Sampled = append(report.Sampled, next.clientID)
		s.tel.SampleReplacements.Inc()
		launch(next)
		return true
	}

	var deadlineTimer *time.Timer
	var deadlineCh <-chan time.Time
	deadlineHit := false
	if s.cfg.RoundDeadline > 0 {
		deadlineTimer = time.NewTimer(s.cfg.RoundDeadline)
		defer deadlineTimer.Stop()
		deadlineCh = deadlineTimer.C
	}
	restartDeadline := func() {
		if deadlineTimer == nil || !deadlineHit {
			return
		}
		deadlineHit = false
		deadlineTimer.Reset(s.cfg.RoundDeadline)
		deadlineCh = deadlineTimer.C
	}

	finish := func() ([]*fl.Update, RoundReport, error) {
		report.Timing.Wait = time.Since(roundStart)
		s.tel.RoundBroadcastSeconds.Observe(report.Timing.Broadcast.Seconds())
		s.tel.RoundWaitSeconds.Observe(report.Timing.Wait.Seconds())
		s.tel.AsyncBuffered.Set(int64(len(s.asyncBuf)))
		report.Err = errors.Join(errs...)
		return updates, report, nil
	}

	for {
		if got >= s.cfg.MinClients {
			return finish()
		}
		// Below quorum with no exchange in flight anywhere: resample if the
		// draw has anyone left, otherwise nothing can ever arrive.
		if len(s.busy) == 0 && !refillOne() {
			report.Err = errors.Join(errs...)
			return nil, report, fmt.Errorf("quorum not met: %d/%d updates: %w", got, s.cfg.MinClients, report.Err)
		}
		select {
		case <-ctx.Done():
			report.Err = errors.Join(errs...)
			return nil, report, ctx.Err()
		case <-s.drainKill:
			report.Err = errors.Join(errs...)
			return nil, report, ErrDraining
		case res := <-s.asyncCh:
			if s.busy[res.sess.clientID] == res.sess {
				delete(s.busy, res.sess.clientID)
			}
			if res.sendDur > report.Timing.Broadcast {
				report.Timing.Broadcast = res.sendDur
			}
			if res.err != nil {
				evict(res.sess, res.err)
				if refillOne() {
					restartDeadline()
				}
				break
			}
			accept(res.u, res.sess)
		case <-s.joinCh:
			// Rejoiners become eligible at the next round's draw; the
			// session is already in the live set.
		case <-deadlineCh:
			deadlineHit = true
			deadlineCh = nil
			// Stragglers are not evicted in async mode — their updates are
			// still welcome later — but below quorum the round resamples
			// replacements rather than waiting on them.
			launched := 0
			for got+launched < s.cfg.MinClients && refillOne() {
				launched++
			}
			if launched > 0 {
				s.logf(round, -1, "flnet: round %d: deadline passed below quorum (%d/%d); resampled %d replacements",
					round, got, s.cfg.MinClients, launched)
				restartDeadline()
			}
		}
	}
}

// applyScreenOutcome merges the round's screening report (if any) into the
// cohort report and evicts the sessions of rejected clients: a poisoner is
// disconnected like any other protocol violator. It may rejoin via the
// resync path, but while its quarantine penalty lasts its updates keep
// being excluded from aggregation.
func (s *Server) applyScreenOutcome(round int, report *RoundReport) {
	rep, ok := s.core.LastScreenReport()
	if !ok || rep.Round != round {
		return
	}
	report.Rejected = rep.RejectedIDs()
	report.Quarantined = append([]int(nil), rep.Quarantined...)
	report.Clipped = append([]int(nil), rep.Clipped...)
	excluded := make(map[int]bool, len(report.Rejected)+len(report.Quarantined))
	for _, id := range report.Rejected {
		excluded[id] = true
	}
	for _, id := range report.Quarantined {
		excluded[id] = true
	}
	if len(excluded) == 0 {
		return
	}
	participants := report.Participants[:0]
	for _, id := range report.Participants {
		if !excluded[id] {
			participants = append(participants, id)
		}
	}
	report.Participants = participants
	for _, v := range rep.Rejected {
		s.mu.Lock()
		sess := s.live[v.ClientID]
		if sess != nil {
			delete(s.live, v.ClientID)
			s.tel.LiveClients.Set(int64(len(s.live)))
		}
		s.mu.Unlock()
		if sess != nil {
			sess.conn.Close()
			s.tel.ClientsEvicted.Inc()
			report.Dropped = append(report.Dropped, v.ClientID)
			s.logf(round, v.ClientID, "flnet: round %d: evicted client %d: %s", round, v.ClientID, v.Reason)
		}
	}
	if len(rep.NewlyQuarantined) > 0 {
		s.logf(round, -1, "flnet: round %d: quarantined clients %v", round, rep.NewlyQuarantined)
	}
}

// exchange sends the round's global state (with the sampled cohort attached
// when the defense needs it) and reads the client's update into a pooled
// state buffer — ownership of the buffer passes to the returned Update and
// back to the pool once the server is done with it. sendDur is how long the
// send took (valid even on a failed exchange, as long as the send itself
// completed).
func (s *Server) exchange(sess *session, round int, bc broadcast, cohort []int) (u *fl.Update, sendDur time.Duration, err error) {
	global := bc.state
	sendStart := time.Now()
	if err := s.send(sess, &Message{Kind: KindGlobal, Round: round, State: global, Cohort: cohort, Canon: bc.canon}); err != nil {
		return nil, 0, err
	}
	// The peer now holds (or will decode) round's canonical broadcast:
	// advance its anchor so its quantized upload resolves this round's base
	// and the next Global can delta against it. A peer that failed to
	// process the send errors the read below and is evicted either way.
	sess.anchor = round
	sendDur = time.Since(sendStart)
	sess.conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	msg := &Message{State: GetState()}
	if err := ReadMessageWith(sess.conn, msg, sess.codec); err != nil {
		PutState(msg.State)
		return nil, sendDur, err
	}
	fail := func(format string, args ...any) (*fl.Update, time.Duration, error) {
		PutState(msg.State)
		return nil, sendDur, fmt.Errorf(format, args...)
	}
	switch msg.Kind {
	case KindUpdate:
	case KindError:
		return fail("client reported: %s", msg.Err)
	default:
		return fail("unexpected %v frame", msg.Kind)
	}
	if msg.Round != round {
		return fail("update for round %d during round %d", msg.Round, round)
	}
	// Structural wire validation: a mis-sized vector or negative weight can
	// only come from a broken or malicious peer; fail the exchange (and
	// evict) instead of letting it reach the aggregation path.
	if len(msg.State) != len(global) {
		return fail("update state has %d values, want %d", len(msg.State), len(global))
	}
	if msg.NumSamples < 0 {
		return fail("update carries negative sample count %d", msg.NumSamples)
	}
	return &fl.Update{
		ClientID:   sess.clientID,
		Round:      msg.Round,
		State:      msg.State,
		NumSamples: msg.NumSamples,
	}, sendDur, nil
}

func (s *Server) send(sess *session, msg *Message) error {
	sess.conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	return WriteMessageWith(sess.conn, msg, sess.codec)
}

func (s *Server) sendError(conn net.Conn, text string) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	// Best effort: the registrant is being rejected anyway.
	_ = WriteMessage(conn, &Message{Kind: KindError, Err: text})
}
