// Package fleetsim is the scale harness for soak tests: a fleet of real
// flnet clients — flnet.RunClient, the session loop dinar-client ships —
// each driving a synthetic trainer in place of a model and a dataset, so
// one test process can run a server through thousands of clients over
// flnet's in-memory listener and still assert bit-exact results.
package fleetsim

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
)

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
	base := fl.Mix64(uint64(seed)) ^ fl.Mix64(uint64(id)<<20|uint64(round)+0x5bf0_3635)
	for i := range dst {
		z := fl.Mix64(base + uint64(i))
		dst[i] = float64(z>>11)/float64(1<<53)*2 - 1
	}
	return dst
}

// Stats aggregates the fleet's outcomes (atomic: clients update them
// concurrently).
type Stats struct {
	// Done counts clients that received the final model broadcast.
	Done atomic.Int64
	// GaveUp counts clients whose RunClient failed while the fleet's context
	// was live: a retry or drain budget exhausted, typically against a
	// listener the finished server has closed.
	GaveUp atomic.Int64
	// Rejoins counts connections dialed after a client's first.
	Rejoins atomic.Int64
	// Partitions counts global broadcasts deliberately dropped by the
	// Partition hook (each costs the server one eviction + replacement).
	Partitions atomic.Int64
	// Updates counts update frames written in full.
	Updates atomic.Int64
}

// Fleet drives N clients against an flnet server. Each is one
// flnet.RunClient goroutine whose trainer uploads SynthState vectors through
// a pass-through defense — no model, no dataset — so 10k of them fit in one
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
	// replying — a mid-round network partition. The client sees a failed
	// upload and redials on its retry budget, like any other fault.
	Partition func(id, round int) bool
	// Mutate, when non-nil, may rewrite the synthetic state before upload —
	// tests use it to turn a client into a poisoner (NaN payloads) and
	// watch the server's screen quarantine it.
	Mutate func(id, round int, state []float64)
	// Dial opens a connection to the server (typically
	// flnet.MemListener.Dial).
	Dial func(ctx context.Context) (net.Conn, error)
	// IOTimeout and MaxRetries are each client's
	// flnet.ClientConfig.IOTimeout and MaxRetries.
	IOTimeout  time.Duration
	MaxRetries int
	// Job names the federation job each Hello asks for — the service-mode
	// front door routes the connection by it. Empty targets a
	// single-federation server directly.
	Job string
}

// baseBackoff is every client's flnet.ClientConfig.BaseBackoff: in-memory
// redials cost nothing, so the soaks need not sit out the 100 ms a TCP
// client starts from.
const baseBackoff = 2 * time.Millisecond

// Run runs the N clients and blocks until every one has finished (final
// model received, retry budget exhausted, or ctx canceled). The returned
// Stats are complete once Run returns.
func (f *Fleet) Run(ctx context.Context) *Stats {
	if f.MaxDelay <= 0 {
		f.MaxDelay = 2 * time.Millisecond
	}
	stats := &Stats{}
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: f.Dim, NumState: f.Dim}); err != nil {
		panic(err) // None binds any layout
	}
	var wg sync.WaitGroup
	for id := 0; id < f.N; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := &trainer{fleet: f, ctx: ctx, stats: stats, update: fl.Update{ClientID: id}}
			_, err := flnet.RunClient(ctx, flnet.ClientConfig{
				Dial:        t.dial,
				Trainer:     t,
				Defense:     def,
				IOTimeout:   f.IOTimeout,
				MaxRetries:  f.MaxRetries,
				BaseBackoff: baseBackoff,
				Job:         f.Job,
				AfterRound:  func(int) { stats.Updates.Add(1) },
			})
			switch {
			case err == nil:
				stats.Done.Add(1)
			case ctx.Err() == nil:
				stats.GaveUp.Add(1)
			}
		}(id)
	}
	wg.Wait()
	return stats
}

// trainer is one client's synthetic flnet.Trainer. RunClient calls dial and
// RunRound from the same goroutine, so conn needs no lock.
type trainer struct {
	fleet  *Fleet
	ctx    context.Context
	stats  *Stats
	update fl.Update // reused every round; State is its buffer
	conn   net.Conn  // the live session's, for Partition to drop
}

func (t *trainer) ClientID() int { return t.update.ClientID }

func (t *trainer) dial(ctx context.Context) (net.Conn, error) {
	conn, err := t.fleet.Dial(ctx)
	if err != nil {
		return nil, err
	}
	if t.conn != nil {
		t.stats.Rejoins.Add(1)
	}
	t.conn = conn
	return conn, nil
}

// RunRound answers one broadcast with the (id, round) synthetic state. There
// is no model to install the personalized global into, so only the upload
// half of the defense runs.
func (t *trainer) RunRound(round int, global []float64, def fl.Defense) (*fl.Update, error) {
	f, id := t.fleet, t.update.ClientID
	if f.Partition != nil && f.Partition(id, round) {
		t.stats.Partitions.Add(1)
		t.conn.Close() // the upload below fails, as over a cut link
	} else if f.DelaySeed != 0 {
		sleepCtx(t.ctx, time.Duration(fl.Mix64(uint64(f.DelaySeed)^uint64(id)<<22^uint64(round)))%f.MaxDelay)
	}
	t.update.Round = round
	t.update.State = SynthState(f.Seed, id, round, f.Dim, t.update.State)
	t.update.NumSamples = 1 + id%7
	if f.Weight != nil {
		t.update.NumSamples = f.Weight(id)
	}
	if f.Mutate != nil {
		f.Mutate(id, round, t.update.State)
	}
	def.BeforeUpload(round, global, &t.update)
	return &t.update, nil
}

// Install implements flnet.Trainer; a synthetic client keeps no model.
func (t *trainer) Install([]float64) error { return nil }

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
