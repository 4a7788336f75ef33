package flnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/fl"
	"repro/internal/telemetry"
)

// Trainer is the local learner a session drives: exactly what the session
// loop calls. *fl.Client (model, data shard, optimizer) is the shipping
// one; fleetsim substitutes a synthetic one so a 10k-client soak runs this
// same loop.
type Trainer interface {
	// ClientID is the id every Hello and Update carries.
	ClientID() int
	// RunRound answers one broadcast: personalize and install global
	// through def, train, protect the upload through def.
	RunRound(round int, global []float64, def fl.Defense) (*fl.Update, error)
	// Install loads the final, defense-transformed model.
	Install(state []float64) error
}

// ClientConfig configures a middleware client process.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Dial, if non-nil, opens each session's connection in place of a TCP
	// dial to Addr — the client-side mirror of ServerConfig.Listener
	// (typically MemListener.Dial). An error is retried like a failed TCP
	// dial.
	Dial func(ctx context.Context) (net.Conn, error)
	// Trainer is the local FL client.
	Trainer Trainer
	// Defense is the client-side defense instance (OnGlobalModel and
	// BeforeUpload hooks run here). It must already be Bound.
	Defense fl.Defense
	// DialTimeout bounds each TCP dial (default 30s); IOTimeout bounds
	// each read/write (default 2 minutes).
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// MaxRetries is the number of reconnection attempts after a dial or
	// per-round I/O failure. Each successfully completed round resets the
	// consecutive-failure count. 0 means the default (5); negative
	// disables retry entirely.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; consecutive
	// failures double it (with jitter in [0.5x, 1.5x)) up to a 10s cap.
	// 0 means the default (100ms).
	BaseBackoff time.Duration
	// Logf receives reconnection progress lines (optional).
	Logf func(format string, args ...any)
	// AfterRound, if non-nil, runs after each round's update has been
	// written to the server in full — the hook middleware uses to persist
	// the client's private-layer store so personalization state survives a
	// client restart. It runs on the session goroutine; a slow hook delays
	// the next round's read.
	AfterRound func(round int)
	// Job names the federation job to join on a multi-job service-mode
	// server; it rides every Hello so reconnects route back to the same
	// job. Empty is fine against a single-federation server.
	Job string
}

// defaultMaxBackoff caps the exponential backoff between reconnects.
const defaultMaxBackoff = 10 * time.Second

// defaultDrainRetryAfter is the back-off the server suggests in its drain
// frames, and what a client assumes for a frame that suggests none.
const defaultDrainRetryAfter = time.Second

// backoffFor computes the clamped exponential backoff before retry number
// failures (1-based). The shift is bounded before it is applied: a naive
// base << (failures-1) overflows time.Duration once failures reaches ~33,
// producing a negative (i.e. instant) backoff — exactly the retry storm
// the backoff exists to prevent.
func backoffFor(base time.Duration, failures int, max time.Duration) time.Duration {
	if base <= 0 {
		return max
	}
	shift := failures - 1
	if shift < 0 {
		shift = 0
	}
	// 2^shift would exceed max for any shift past log2(max/base); also
	// guards the Duration overflow at shift >= 63.
	if shift >= 63 || base > max>>shift {
		return max
	}
	return base << shift
}

// RunClient connects to the server, participates in every round until the
// server sends Done, installs the final (personalized) model into the
// trainer, and returns the final global state.
//
// Network faults — a failed dial, a dropped or reset connection, a
// timed-out read — are retried with exponential backoff and jitter up to
// MaxRetries consecutive failures. On reconnect the Hello frame carries
// the last round this client completed, and the server resyncs the client
// by resending the current round's global state. Local training errors
// and server rejections are not retried.
func RunClient(ctx context.Context, cfg ClientConfig) ([]float64, error) {
	if cfg.Trainer == nil || cfg.Defense == nil {
		return nil, fmt.Errorf("flnet: client needs Trainer and Defense")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 2 * time.Minute
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.Dial == nil {
		dialer := net.Dialer{Timeout: cfg.DialTimeout}
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, "tcp", cfg.Addr)
			if err != nil {
				return nil, fmt.Errorf("flnet: dial %s: %w", cfg.Addr, err)
			}
			return conn, nil
		}
	}
	id := cfg.Trainer.ClientID()
	// Route progress lines through a serialized event log so clients
	// sharing one process (tests, simulations) never interleave output.
	logf := cfg.Logf
	var sink func(line string)
	if logf != nil {
		sink = func(line string) { logf("%s", line) }
	}
	events := telemetry.NewEventLog(16, sink)
	// Deterministic per-client jitter keeps test runs reproducible while
	// still decorrelating real clients' retry storms.
	rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))

	lastCompleted := -1
	// Broadcast anchors survive reconnects: a redialing client still holds
	// the broadcast of its last completed round, so a server whose ring
	// still covers it can resume delta encoding immediately.
	anchors := &wireAnchors{round: -1, pendRound: -1}
	failures := 0
	drainWaits := 0
	// A drain notice is an orderly "come back later", not a fault: it does
	// not consume the retry budget, but it is capped so a server that
	// drains forever cannot pin the client in a redial loop.
	maxDrainWaits := 4*cfg.MaxRetries + 8
	for {
		before := lastCompleted
		final, err := runSession(ctx, cfg, &lastCompleted, anchors)
		if err == nil {
			return final, nil
		}
		if !err.retryable || ctx.Err() != nil {
			return nil, err.err
		}
		if lastCompleted > before {
			failures = 0 // the session made progress; restart the budget
			drainWaits = 0
		}
		var sleep time.Duration
		if err.drain {
			drainWaits++
			if drainWaits > maxDrainWaits {
				return nil, fmt.Errorf("flnet: client %d giving up after %d drain notices: %w",
					id, drainWaits, err.err)
			}
			retryAfter := err.retryAfter
			if retryAfter <= 0 {
				retryAfter = defaultDrainRetryAfter
			}
			sleep = retryAfter/2 + time.Duration(rng.Int63n(int64(retryAfter)))
			telClientDrainWaits.Inc()
			events.Eventf(-1, id, "flnet: client %d draining server; redialing in %s (notice %d/%d)",
				id, sleep, drainWaits, maxDrainWaits)
		} else {
			failures++
			if failures > cfg.MaxRetries {
				return nil, fmt.Errorf("flnet: client %d giving up after %d consecutive failures: %w",
					id, failures, err.err)
			}
			backoff := backoffFor(cfg.BaseBackoff, failures, defaultMaxBackoff)
			sleep = backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
			telClientReconnects.Inc()
			events.Eventf(-1, id, "flnet: client %d retry %d/%d in %s after: %v",
				id, failures, cfg.MaxRetries, sleep, err.err)
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// sessionError classifies a failed session: retryable errors are network
// faults worth a reconnect; the rest (training failures, server
// rejections) abort the client.
type sessionError struct {
	err       error
	retryable bool
	// drain marks an orderly server drain notice: retryable, outside the
	// failure budget, with a server-suggested back-off.
	drain      bool
	retryAfter time.Duration
}

func retryableErr(err error) *sessionError { return &sessionError{err: err, retryable: true} }
func permanentErr(err error) *sessionError { return &sessionError{err: err, retryable: false} }

func drainErr(err error, retryAfter time.Duration) *sessionError {
	return &sessionError{err: err, retryable: true, drain: true, retryAfter: retryAfter}
}

// wireAnchors is the client's side of the delta/quantization anchor
// protocol: state is the broadcast of the last *completed* round (what
// Hello's LastRound promises the server the client holds), and pendState
// the broadcast most recently received but not yet answered. The anchor
// only advances when an upload has been written in full — a crash mid-round
// can therefore never desync the client from what its next Hello claims.
//
// The two are the client's only state buffers, and they rotate: every frame
// decodes into the one that is not the completed anchor (spare), a
// broadcast stays there as the pending anchor, and completing it swaps the
// roles.
type wireAnchors struct {
	round     int
	state     []float64
	pendRound int
	pendState []float64
}

// base resolves an anchor round for the session codec.
func (a *wireAnchors) base(round int) []float64 {
	if round == a.pendRound && a.pendState != nil {
		return a.pendState
	}
	if round == a.round && a.state != nil {
		return a.state
	}
	return nil
}

// spare gives up the pending anchor and returns its buffer for the next
// frame to decode into — so no frame can decode into its own base.
func (a *wireAnchors) spare() []float64 {
	a.pendRound = -1
	return a.pendState
}

// received records a broadcast just decoded into the spare buffer as the
// pending anchor.
func (a *wireAnchors) received(round int, state []float64) {
	a.pendRound, a.pendState = round, state
}

// completed promotes the pending anchor after the round's upload was
// written in full (buffer swap: the old anchor's backing array becomes the
// next pend buffer).
func (a *wireAnchors) completed(round int) {
	if a.pendRound != round {
		return
	}
	a.round = round
	a.state, a.pendState = a.pendState, a.state
	a.pendRound = -1
}

// runSession runs one connection's worth of the protocol: dial, hello,
// rounds, done. lastCompleted is advanced after every update the server
// received in full, so a later session's Hello tells the server where
// this client left off.
func runSession(ctx context.Context, cfg ClientConfig, lastCompleted *int, anchors *wireAnchors) ([]float64, *sessionError) {
	conn, err := cfg.Dial(ctx)
	if err != nil {
		return nil, retryableErr(err)
	}
	defer conn.Close()
	// Cancel blocking reads when ctx ends.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	id := cfg.Trainer.ClientID()
	conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
	hello := &Message{
		Kind:      KindHello,
		ClientID:  id,
		Version:   ProtocolVersion,
		LastRound: *lastCompleted,
		Job:       cfg.Job,
		WireCaps:  ClientCaps,
	}
	if err := WriteMessage(conn, hello); err != nil {
		return nil, retryableErr(err)
	}

	// codec stays nil (plain frames) until the server's KindWire ack
	// negotiates the session's payload codecs.
	var codec *Codec
	msg := &Message{}
	for {
		if codec != nil {
			msg.State = anchors.spare()
		}
		conn.SetReadDeadline(time.Now().Add(cfg.IOTimeout))
		if err := ReadMessageWith(conn, msg, codec); err != nil {
			if ctx.Err() != nil {
				return nil, permanentErr(ctx.Err())
			}
			return nil, retryableErr(err)
		}
		switch msg.Kind {
		case KindWire:
			caps := negotiateCaps(hello.WireCaps, msg.WireCaps)
			if caps == 0 {
				return nil, permanentErr(fmt.Errorf("flnet: server negotiated unsupported wire capabilities %#x", msg.WireCaps))
			}
			codec = NewCodec(caps, msg.QuantSeed, msg.TopK, anchors.base)
		case KindGlobal:
			if codec != nil {
				// Keep the broadcast where it was decoded: the upload diffs
				// against it, and the next delta broadcast may anchor on it.
				anchors.received(msg.Round, msg.State)
			}
			// A cohort-aware defense (secure aggregation) masks against the
			// round's sampled cohort, which the server attaches to the
			// broadcast; without the announcement the mask graph defaults to
			// the full registered fleet.
			if ca, ok := cfg.Defense.(fl.CohortAware); ok && len(msg.Cohort) > 0 {
				ca.SetRoundCohort(msg.Round, msg.Cohort)
			}
			u, err := cfg.Trainer.RunRound(msg.Round, msg.State, cfg.Defense)
			if err != nil {
				conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
				_ = WriteMessageWith(conn, &Message{Kind: KindError, Err: err.Error()}, codec)
				return nil, permanentErr(err)
			}
			conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
			err = WriteMessageWith(conn, &Message{
				Kind:       KindUpdate,
				ClientID:   u.ClientID,
				Round:      u.Round,
				State:      u.State,
				NumSamples: u.NumSamples,
			}, codec)
			if err != nil {
				return nil, retryableErr(err)
			}
			*lastCompleted = msg.Round
			anchors.completed(msg.Round)
			if cfg.AfterRound != nil {
				cfg.AfterRound(msg.Round)
			}
		case KindDone:
			// Final personalization: install the last global model through
			// the defense's download path.
			state := cfg.Defense.OnGlobalModel(id, msg.Round, msg.State)
			if err := cfg.Trainer.Install(state); err != nil {
				return nil, permanentErr(err)
			}
			return msg.State, nil
		case KindDrain:
			// The server is draining for shutdown (or shedding load):
			// back off politely and redial instead of burning retries.
			return nil, drainErr(fmt.Errorf("flnet: server draining"),
				time.Duration(msg.RetryAfterMs)*time.Millisecond)
		case KindError:
			// A rejection can be transient (e.g. "already registered"
			// while the server is still evicting this client's previous
			// connection), so rejections share the retry budget.
			return nil, retryableErr(fmt.Errorf("flnet: server reported: %s", msg.Err))
		default:
			return nil, retryableErr(fmt.Errorf("flnet: unexpected %v frame", msg.Kind))
		}
	}
}
