package fleetsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flnet"
)

// mix64 is the SplitMix64 finalizer; with a sequential counter input it
// yields a high-quality deterministic stream, which is all the synthetic
// fleet needs (values must be identical run-to-run, not cryptographic).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SynthState fills dst with the deterministic synthetic update a simulated
// client uploads: coordinate i of client id at round is a pure function of
// (seed, id, round, i) mapped into [-1, 1). Two runs with the same seed
// therefore produce bit-identical update sets regardless of timing, which
// is what lets the soak compare streaming against materialized aggregation
// for exact equality.
func SynthState(seed int64, id, round, dim int, dst []float64) []float64 {
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	base := mix64(uint64(seed)) ^ mix64(uint64(id)<<20|uint64(round)+0x5bf0_3635)
	for i := range dst {
		z := mix64(base + uint64(i))
		dst[i] = float64(z>>11)/float64(1<<53)*2 - 1
	}
	return dst
}

// Stats aggregates the fleet's outcomes (atomic: clients update them
// concurrently).
type Stats struct {
	// Done counts clients that received the final model broadcast.
	Done atomic.Int64
	// GaveUp counts clients that exhausted their redial budget.
	GaveUp atomic.Int64
	// Rejoins counts successful re-registrations after a client's first.
	Rejoins atomic.Int64
	// Partitions counts global broadcasts deliberately dropped by the
	// Partition hook (each costs the server one eviction + replacement).
	Partitions atomic.Int64
	// Updates counts update frames written in full.
	Updates atomic.Int64
}

// Fleet drives N simulated clients against an flnet server. Each client is
// one goroutine speaking the raw wire protocol — no trainer, no dataset,
// no defense — uploading SynthState vectors, so 10k of them fit in one
// test process and the uploaded bytes are a pure function of the seed.
type Fleet struct {
	// N is the number of clients; ids are 0..N-1 (the server requires ids
	// in [0, NumClients)).
	N int
	// Dim is the state-vector length, matching the server's InitialState.
	Dim int
	// Seed derives every client's synthetic updates via SynthState.
	Seed int64
	// DelaySeed, when non-zero, adds a deterministic per-(id, round) think
	// delay in [0, MaxDelay) before each upload. Two runs with different
	// DelaySeeds deliver the same updates in different arrival orders —
	// exactly the perturbation the streaming-vs-materialized identity soak
	// needs.
	DelaySeed int64
	// MaxDelay bounds the think delay (default 2ms when DelaySeed is set).
	MaxDelay time.Duration
	// Weight returns a client's NumSamples (nil means 1 + id%7, so
	// weighted averaging is exercised).
	Weight func(id int) int
	// Partition, when non-nil and true for (id, round), makes the client
	// drop the connection on receiving that round's global instead of
	// replying — a mid-round network partition. The client redials and
	// re-registers afterwards.
	Partition func(id, round int) bool
	// Mutate, when non-nil, may rewrite the synthetic state before upload —
	// tests use it to turn a client into a poisoner (NaN payloads) and
	// watch the server's screen quarantine it.
	Mutate func(id, round int, state []float64)
	// Dial opens a connection to the server (typically MemListener.Dial).
	Dial func() (net.Conn, error)
	// IOTimeout bounds each read/write (default 2 minutes — non-sampled
	// clients legitimately sit in a read for many rounds).
	IOTimeout time.Duration
	// MaxRetries bounds consecutive redials that make no progress
	// (default 8).
	MaxRetries int
	// Caps is the wire capability mask each client advertises in its Hello
	// (e.g. flnet.ClientCaps). 0 — the default — advertises nothing: the
	// server sends no ack and the session moves raw float64 frames.
	Caps uint32
	// Version overrides the protocol version sent in Hello frames (0 means
	// flnet.ProtocolVersion) — the version-rejection test uses it to
	// present a mismatched peer.
	Version int
	// Job names the federation job each Hello asks for — the service-mode
	// front door routes the connection by it. Empty targets a
	// single-federation server directly.
	Job string
}

// anchors tracks the broadcasts a simulated client holds, mirroring the
// real client's anchor discipline: pend is the last received broadcast,
// and the stable anchor only advances once the round's update has been
// written in full (so Hello's LastRound never promises a state the client
// might not hold).
type anchors struct {
	round     int
	state     []float64
	pendRound int
	pendState []float64
}

func (a *anchors) base(round int) []float64 {
	if round == a.pendRound && a.pendState != nil {
		return a.pendState
	}
	if round == a.round && a.state != nil {
		return a.state
	}
	return nil
}

func (a *anchors) received(round int, state []float64) {
	a.pendRound = round
	a.pendState = append(a.pendState[:0], state...)
}

func (a *anchors) completed(round int) {
	if a.pendRound != round {
		return
	}
	a.round = round
	a.state, a.pendState = a.pendState, a.state
	a.pendRound = -1
}

// errPartitioned marks a deliberate partition-induced disconnect; it does
// not consume the retry budget.
var errPartitioned = errors.New("fleetsim: partitioned")

// drainNotice carries the server-suggested back-off from a drain frame.
type drainNotice struct{ retryAfter time.Duration }

func (d drainNotice) Error() string { return "fleetsim: server draining" }

// Run spawns the N client goroutines and blocks until every one has
// finished (final model received, retry budget exhausted, or ctx
// canceled). The returned Stats are complete once Run returns.
func (f *Fleet) Run(ctx context.Context) *Stats {
	if f.IOTimeout <= 0 {
		f.IOTimeout = 2 * time.Minute
	}
	if f.MaxRetries <= 0 {
		f.MaxRetries = 8
	}
	if f.MaxDelay <= 0 {
		f.MaxDelay = 2 * time.Millisecond
	}
	stats := &Stats{}
	// One closer goroutine (not one per client) tears down every live
	// connection on ctx cancel, so clients can use long read deadlines
	// without making shutdown wait them out.
	conns := make([]net.Conn, f.N)
	var connMu sync.Mutex
	closerDone := make(chan struct{})
	fleetDone := make(chan struct{})
	go func() {
		defer close(closerDone)
		select {
		case <-ctx.Done():
			connMu.Lock()
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			connMu.Unlock()
		case <-fleetDone:
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < f.N; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f.runClient(ctx, id, stats, func(c net.Conn) {
				connMu.Lock()
				conns[id] = c
				connMu.Unlock()
			})
		}(id)
	}
	wg.Wait()
	close(fleetDone)
	<-closerDone
	return stats
}

// runClient is one simulated client's lifetime: dial, register, answer
// globals until Done, redialing after partitions and faults.
func (f *Fleet) runClient(ctx context.Context, id int, stats *Stats, track func(net.Conn)) {
	lastRound := -1
	retries := 0
	sessions := 0
	buf := make([]float64, 0, f.Dim)
	anch := &anchors{round: -1, pendRound: -1}
	for ctx.Err() == nil {
		conn, err := f.Dial()
		if err != nil {
			// Listener closed: the federation is over and this client was
			// not live for the final broadcast (evicted and not resampled).
			return
		}
		track(conn)
		before := lastRound
		sessions++
		if sessions > 1 {
			stats.Rejoins.Add(1)
		}
		err = f.session(ctx, id, conn, &lastRound, &buf, anch, stats)
		conn.Close()
		track(nil)
		switch {
		case err == nil:
			stats.Done.Add(1)
			return
		case ctx.Err() != nil:
			return
		case errors.Is(err, errPartitioned):
			// Deliberate fault: give the server a beat to evict the dead
			// session before re-registering under the same id.
			retries = 0
			sleepCtx(ctx, time.Duration(1+mix64(uint64(id)<<8|uint64(sessions))%4)*time.Millisecond)
			continue
		}
		var drain drainNotice
		if errors.As(err, &drain) {
			retryAfter := drain.retryAfter
			if retryAfter <= 0 {
				retryAfter = 50 * time.Millisecond
			}
			sleepCtx(ctx, retryAfter)
			continue
		}
		if lastRound > before {
			retries = 0 // the session made progress; restart the budget
		}
		retries++
		if retries > f.MaxRetries {
			stats.GaveUp.Add(1)
			return
		}
		sleepCtx(ctx, time.Duration(retries)*time.Duration(1+mix64(uint64(id)^uint64(retries)<<13)%5)*time.Millisecond)
	}
}

// session runs one connection's worth of protocol: hello, then globals
// until Done. A nil return means the final model arrived.
func (f *Fleet) session(ctx context.Context, id int, conn net.Conn, lastRound *int, buf *[]float64, anch *anchors, stats *Stats) error {
	version := f.Version
	if version == 0 {
		version = flnet.ProtocolVersion
	}
	conn.SetWriteDeadline(time.Now().Add(f.IOTimeout))
	err := flnet.WriteMessage(conn, &flnet.Message{
		Kind:      flnet.KindHello,
		ClientID:  id,
		Version:   version,
		LastRound: *lastRound,
		WireCaps:  f.Caps,
		Job:       f.Job,
	})
	if err != nil {
		return err
	}
	var codec *flnet.Codec
	var msg flnet.Message
	for {
		conn.SetReadDeadline(time.Now().Add(f.IOTimeout))
		if err := flnet.ReadMessageWith(conn, &msg, codec); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch msg.Kind {
		case flnet.KindWire:
			if msg.WireCaps&^f.Caps != 0 {
				return fmt.Errorf("fleetsim: client %d: server negotiated unadvertised capabilities %#x", id, msg.WireCaps)
			}
			codec = flnet.NewCodec(msg.WireCaps, msg.QuantSeed, msg.TopK, anch.base)
		case flnet.KindGlobal:
			if codec != nil {
				anch.received(msg.Round, msg.State)
			}
			if f.Partition != nil && f.Partition(id, msg.Round) {
				stats.Partitions.Add(1)
				return errPartitioned
			}
			if f.DelaySeed != 0 && f.MaxDelay > 0 {
				d := time.Duration(mix64(uint64(f.DelaySeed)^uint64(id)<<22^uint64(msg.Round))) % f.MaxDelay
				sleepCtx(ctx, d)
			}
			weight := 1 + id%7
			if f.Weight != nil {
				weight = f.Weight(id)
			}
			*buf = SynthState(f.Seed, id, msg.Round, f.Dim, *buf)
			if f.Mutate != nil {
				f.Mutate(id, msg.Round, *buf)
			}
			conn.SetWriteDeadline(time.Now().Add(f.IOTimeout))
			err := flnet.WriteMessageWith(conn, &flnet.Message{
				Kind:       flnet.KindUpdate,
				ClientID:   id,
				Round:      msg.Round,
				State:      *buf,
				NumSamples: weight,
			}, codec)
			if err != nil {
				return err
			}
			stats.Updates.Add(1)
			*lastRound = msg.Round
			anch.completed(msg.Round)
		case flnet.KindDone:
			return nil
		case flnet.KindDrain:
			return drainNotice{retryAfter: time.Duration(msg.RetryAfterMs) * time.Millisecond}
		case flnet.KindError:
			return fmt.Errorf("fleetsim: client %d rejected: %s", id, msg.Err)
		default:
			return fmt.Errorf("fleetsim: client %d: unexpected %v frame", id, msg.Kind)
		}
	}
}

// sleepCtx sleeps for d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
