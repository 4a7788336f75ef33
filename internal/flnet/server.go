package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fl"
	"repro/internal/telemetry"
)

// ServerConfig configures the middleware server.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7070". Use ":0" for an
	// ephemeral port (tests). Empty with a nil Listener opens no socket:
	// clients then arrive only through Admit (a service job) or Pipe (an
	// in-process fleet).
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
	// AsyncStaleness selects the round engine's two close policies. 0 means
	// synchronous rounds: a round closes once every launched exchange has
	// reported (or, past RoundDeadline, with a quorum) and exchanges still
	// in flight at the close are evicted. Positive means buffered async
	// rounds: a round closes as soon as MinClients updates are accepted, and
	// an exchange still in flight carries over — its update folds into a
	// later round, weighted down by its age via fl.StalenessWeight, as long
	// as it is at most AsyncStaleness rounds old. Incompatible with
	// cohort-aware defenses (stale updates' pairwise masks cannot cancel
	// across cohorts).
	AsyncStaleness int
	// Streaming folds each update into an O(model) running accumulator as
	// it arrives instead of retaining the whole cohort's updates
	// (O(clients × model)) for the defense's batch rule. Requires a defense
	// whose aggregation rule can stream (fl.StreamingCapable); otherwise the
	// server logs a warning, increments dinar_flnet_streaming_fallback_total,
	// and retains.
	Streaming bool
	// Rounds is the number of FL rounds to run.
	Rounds int
	// RoundDeadline bounds one round's update collection; after it expires
	// the round proceeds with a quorum and evicts stragglers. 0 means no
	// deadline: the round ends only when every live client has reported or
	// failed. A negative deadline is refused.
	RoundDeadline time.Duration
	// Defense is the server-side defense instance (its Aggregate hook runs
	// here). It must already be Bound to the model layout.
	Defense fl.Defense
	// InitialState is the initial global model state vector.
	InitialState []float64
	// IOTimeout bounds individual reads/writes per connection and the
	// registration phase: once it has passed, the federation starts with
	// whatever quorum has registered (or fails below MinClients). Default 2
	// minutes.
	IOTimeout time.Duration
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
	// Listener, if non-nil, is used instead of listening on Addr: a wrapped
	// TCP listener, such as the tests' faultnet or the round benchmark's
	// byte counter.
	Listener net.Listener
	// Registry is the telemetry registry the server's instruments (and
	// its fl core's and screen's) register into; whoever serves /metrics
	// merges it with the process-scoped one. nil means a fresh registry of
	// the server's own that nothing exposes.
	Registry *telemetry.Registry
	// Logf receives progress lines (optional). Every call site is routed
	// through one serialized event log, so Logf is never invoked
	// concurrently and always receives one whole line per call — the
	// acceptor's registrations, per-client round goroutines, and the round
	// loop can no longer interleave output mid-line.
	Logf func(format string, args ...any)
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
	// QuantSeedDefault applies (0 means 1), mirroring SampleSeed. A nonzero
	// QuantSeed without Quantize is refused.
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

// eventCapacity bounds the in-memory ring of recent structured events
// (Events method).
const eventCapacity = 256

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
	// formed is set once the registration phase has its cohort; a
	// registration after that counts as a rejoin.
	formed  bool
	reports []RoundReport
	// curRound is the round currently being orchestrated; ckptRound the
	// last persisted checkpoint (-1 before the first); status the
	// /healthz lifecycle phase ("waiting", "running", "draining",
	// "drained", "done").
	curRound  int
	ckptRound int
	status    string

	// joinCh delivers sessions registered by the acceptor to the round
	// loop; runDone closes when Run returns; tooMany closes when the reject
	// cap is hit.
	joinCh  chan *session
	runDone chan struct{}
	tooMany chan struct{}

	// ckptPending is the in-flight background checkpoint write in
	// pipelined mode (nil when none). Owned by the round-loop goroutine:
	// submitted after each aggregate, joined before the next submit, in
	// exit, and before Run returns.
	ckptPending *ckptPending

	// Drain state machine: drainCh closes when Shutdown begins (the round
	// loop exits at the next round boundary); drainKill closes when the
	// Shutdown context expires (the in-flight round aborts immediately).
	drainCh   chan struct{}
	drainKill chan struct{}
	drainOnce sync.Once
	killOnce  sync.Once

	// regSem bounds the registrations mid-validation at once. regs counts
	// the acceptor, every registration goroutine and every drain notice
	// being written to a turned-away connection, and Run joins them;
	// regCtx is cancelled (under mu) when Run begins that join, refusing new
	// registrations and aborting those in flight.
	regSem  chan struct{}
	regs    sync.WaitGroup
	regCtx  context.Context
	regStop context.CancelFunc

	// streamAgg is the defense's streaming aggregator (nil: the core
	// retains each round's updates for the batch rule); cohortAware is
	// non-nil when the defense needs each round's sampled cohort announced
	// (secure aggregation's mask graph).
	streamAgg   fl.StreamingAggregator
	cohortAware fl.CohortAware

	// Round-engine state, owned by the round loop. results receives the
	// outcome of every exchange for the server's lifetime, whichever round
	// launched it; busy maps a client id to its session while its exchange
	// is in flight (across round boundaries in async mode); restored holds
	// the late updates a checkpoint carried, until the first round folds
	// them.
	results  chan result
	busy     map[int]*session
	restored []*fl.Update

	// Wire-codec state: offerCaps is the capability mask offered at
	// negotiation, quantKind the configured upload
	// quantization, wireLabel the /healthz codec label, and ring the
	// canonical broadcasts that delta/quantized payloads can still anchor
	// against (nil unless quantization or delta broadcasts are offered).
	// canonEnc is the round loop's encoder for the canonical broadcast
	// delta (prepareBroadcast); only that goroutine touches it.
	offerCaps uint32
	quantKind fl.QuantKind
	wireLabel string
	ring      *bcastRing
	canonEnc  fl.DeltaEncoder
}

// NewServer validates the configuration, loads a checkpoint when one is
// configured and present, and starts listening unless it has neither a
// Listener nor an Addr.
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
	if cfg.RoundDeadline < 0 {
		return nil, fmt.Errorf("flnet: negative RoundDeadline %s (0 means no deadline)", cfg.RoundDeadline)
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
	// Every log line funnels through one serialized event log; the
	// user-supplied sink (if any) is invoked under its mutex and always
	// receives complete lines.
	var sink func(line string)
	if logf := cfg.Logf; logf != nil {
		sink = func(line string) { logf("%s", line) }
	}
	events := telemetry.NewEventLog(eventCapacity, sink)

	// One registry per server, shared by its fl core and screen.
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	tel := NewMetrics(cfg.Registry)
	flTel := fl.NewMetrics(cfg.Registry)

	var screen *fl.Screen
	if !cfg.NoScreen {
		screen = fl.NewScreen(cfg.Screen)
		screen.SetMetrics(flTel)
	}

	snap, err := resume(&cfg, events)
	if err != nil {
		return nil, err
	}
	state, startRound := snap.State, snap.Round
	// Restore the screen's reputation state so quarantine penalties survive
	// the restart — a poisoner must not be paroled by a server crash.
	if screen != nil && snap.Quarantine != nil {
		screen.ImportState(fl.ScreenState{
			Offenses:     snap.Quarantine.Offenses,
			BlockedUntil: snap.Quarantine.BlockedUntil,
			Norms:        snap.Quarantine.Norms,
		})
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

	core, err := fl.NewServer(state, cfg.Defense, nil)
	if err != nil {
		return nil, err
	}
	// The core holds its own copy; the caller's initial state is not kept
	// alive for the server's lifetime.
	cfg.InitialState = nil
	core.SetMetrics(flTel)
	core.SetRound(startRound)
	// Update payloads are read into pooled buffers (exchange); the core
	// hands each one back the moment it is finished with it.
	core.SetRecycler(PutState)
	if screen != nil {
		core.SetScreen(screen)
	}

	var streamAgg fl.StreamingAggregator
	if cfg.Streaming {
		streamAgg = fl.StreamingOf(cfg.Defense)
		if streamAgg == nil {
			tel.StreamingFallback.Inc()
			events.Eventf(-1, -1, "flnet: defense %q has no streaming aggregation rule; retaining each round's updates for its batch rule",
				cfg.Defense.Name())
		} else if nc, ok := streamAgg.(fl.NormCarrier); ok && len(snap.StreamNorms) > 0 {
			// The streaming norm bound calibrates against a trailing
			// cross-round window; restore it so the resumed server clips
			// with the same bound the crashed one would have.
			nc.ImportNorms(snap.StreamNorms)
		}
	}

	ln := cfg.Listener
	if ln == nil && cfg.Addr != "" {
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
		tooMany:     make(chan struct{}),
		drainCh:     make(chan struct{}),
		drainKill:   make(chan struct{}),
		regSem:      make(chan struct{}, 4*cfg.NumClients+16),
		streamAgg:   streamAgg,
		cohortAware: cohortAware,
		offerCaps:   offerCaps,
		quantKind:   quantKind,
		wireLabel:   CapsLabel(offerCaps),
		// A live client has at most one exchange in flight, so with room for
		// the cohort a delivery rarely waits on the round loop (and gives up
		// waiting once Run has returned, see launch).
		results: make(chan result, cfg.NumClients),
		busy:    make(map[int]*session, cfg.NumClients),
	}
	srv.regCtx, srv.regStop = context.WithCancel(context.Background())
	if offerCaps&(CapQuantInt8|CapQuantInt16|CapDelta) != 0 {
		// A synchronous round's exchanges end with the round, so a session
		// anchors on the newest broadcast or the one before it; a peer whose
		// anchor is older gets a full state. An async exchange's
		// upload may be read rounds after its broadcast (and only then
		// dropped as too stale), so async keeps a window of eight.
		size := 2
		if cfg.AsyncStaleness > 0 {
			size = max(8, cfg.AsyncStaleness+2)
		}
		srv.ring = newBcastRing(size)
		if w := snap.Wire; w != nil && len(w.Bcast) == len(state) && w.BcastRound >= 0 {
			// Resume the canonical broadcast chain from the recorded anchor:
			// reconnecting clients whose LastRound matches get deltas against
			// the exact state they hold.
			srv.ring.put(w.BcastRound, w.Bcast)
		}
	}
	if cfg.AsyncStaleness > 0 {
		for _, au := range snap.Async {
			srv.restored = append(srv.restored, &fl.Update{
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
		if s.status == "waiting" || s.status == "running" {
			s.status = "draining"
		}
		s.mu.Unlock()
		s.logf(-1, -1, "flnet: drain requested")
		// The registration wait and the round loop both watch drainCh; the
		// acceptor sheds registrants with drain frames until Run returns.
		close(s.drainCh)
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

// Addr returns the bound listen address of a server that has a listener.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener, if the server has one.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

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

// Run admits registrations, orchestrates all rounds (tolerating client
// failure per MinClients/RoundDeadline), sends the final model, and
// returns the final global state.
func (s *Server) Run(ctx context.Context) ([]float64, error) {
	// Exchange goroutines stop trying to deliver once runDone closes, and
	// whatever the exit, no registered client is left blocked on an open
	// socket the server will never write to again.
	defer close(s.runDone)
	defer s.closeLive()

	// One acceptor admits clients for the whole run when the server has a
	// listener: the cohort, then evicted clients rejoining to resync. Run
	// joins it and every registration, Admit's included, before returning
	// (and so before closeLive): a registration still holding an accepted
	// socket after Run returns would keep the port busy and break an
	// immediate same-address restart (Linux only rebinds over TIME_WAIT,
	// not ESTABLISHED).
	if s.ln != nil {
		s.regs.Add(1)
		go func() {
			defer s.regs.Done()
			s.accept()
		}()
	}
	defer func() {
		s.Close() // unblock Accept
		s.mu.Lock()
		s.regStop() // refuse new registrations, abort in-flight ones
		s.mu.Unlock()
		s.regs.Wait()
	}()

	if err := s.awaitCohort(ctx); err != nil {
		if errors.Is(err, ErrDraining) {
			// Drained while waiting for the cohort: no round ran, so the
			// resumed (or initial) state is already the latest checkpoint.
			return s.exit(s.startRound, true)
		}
		return nil, err
	}
	// Backstop for error exits: never leave a background checkpoint write
	// running past Run (the success and drain paths join explicitly and
	// surface the write's error; this re-join is then a no-op).
	defer s.joinCheckpoint() //nolint:errcheck // error surfaced on non-backstop paths

	for round := s.startRound; round < s.cfg.Rounds; round++ {
		if s.draining() {
			return s.exit(round, true)
		}
		report, err := s.runRound(ctx, round)
		s.mu.Lock()
		s.reports = append(s.reports, report)
		s.mu.Unlock()
		if errors.Is(err, ErrDraining) {
			// The drain deadline expired mid-round: the round is abandoned
			// (its updates were never aggregated — the checkpoint chain ends
			// at the last completed round).
			return s.exit(round, true)
		}
		if err != nil {
			return nil, err
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
	return s.exit(s.cfg.Rounds, false)
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

// exit is Run's one way out after its last round and after a drain. It
// lands the checkpoint chain, publishes the final round and status, bids
// every live client farewell (the final model, or a drain notice telling it
// to come back after the restart) and logs. The last round's pipelined write
// must land before Run reports success, since callers restart from it; a
// drain also saves when the chain is behind the last completed round (no
// round ran, or a pipelined write failed), and returns the partial global
// state alongside ErrDraining.
func (s *Server) exit(round int, drained bool) ([]float64, error) {
	err := s.joinCheckpoint()
	if drained && s.cfg.CheckpointPath != "" {
		s.mu.Lock()
		behind := s.ckptRound < s.core.Round()
		s.mu.Unlock()
		if behind {
			err = errors.Join(err, s.saveCheckpoint())
		}
	}
	if err != nil && !drained {
		return nil, fmt.Errorf("flnet: final checkpoint: %w", err)
	}
	final := s.core.GlobalState()
	status, notice := "done", &Message{Kind: KindDone, Round: round, State: final}
	if drained {
		status, notice = "drained", drainNotice()
	}
	s.mu.Lock()
	s.curRound = round
	s.status = status
	ckptRound := s.ckptRound
	s.mu.Unlock()
	n, sendErr := s.farewell(notice)
	if !drained {
		// The federation already converged; a client that cannot receive
		// Done lost only its own final install.
		if sendErr != nil {
			s.logf(round, -1, "flnet: done broadcast: %v", sendErr)
		}
		return final, nil
	}
	// Best effort: a client that misses its notice fails its read when the
	// conn closes; the notice just turns that into a polite back-off.
	s.tel.DrainNotices.Add(int64(n))
	s.logf(round, -1, "flnet: drained before round %d (%d clients notified, checkpoint at round %d)",
		round, n, ckptRound)
	if err != nil {
		return final, fmt.Errorf("%w: final checkpoint: %v", ErrDraining, err)
	}
	return final, ErrDraining
}

// farewell writes msg to every live session at once, each write on its own
// goroutine under the session's IOTimeout write deadline, and joins them, so
// peers that stop reading hold Run's exit for one IOTimeout however many
// they are. As with round.launch's broadcasts, each session owns its codec
// and msg is only read. It returns how many sessions it wrote to and the
// failed writes.
func (s *Server) farewell(msg *Message) (int, error) {
	var wg sync.WaitGroup
	s.mu.Lock()
	errs := make([]error, len(s.live))
	i := 0
	for _, sess := range s.live {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.send(sess, msg); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", sess.clientID, err)
			}
		}(i)
		i++
	}
	s.mu.Unlock()
	wg.Wait()
	return len(errs), errors.Join(errs...)
}
