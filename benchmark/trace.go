package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fl"
	"repro/internal/metrics"
)

// Every layer is observed from outside the program: the client side through
// a wrapper around the fl.Defense the client already takes plus its
// AfterRound hook, the server side through a wrapper around the conns its
// listener accepts. Wrappers only write timestamps into preallocated
// per-client / per-conn records (each touched by one goroutine at a time,
// read after the federation has returned); spans are materialized from the
// records once the run is over, so tracing never takes a lock on the round
// path.

// clientTimeline holds one client's hook timestamps, indexed by round. The
// final install (the KindDone path calls OnGlobalModel with round ==
// rounds) lands in the extra last slot.
type clientTimeline struct {
	ogEnter, ogExit []time.Time // Defense.OnGlobalModel
	buEnter, buExit []time.Time // Defense.BeforeUpload
	after           []time.Time // AfterRound (in-process: the RunRound return)

	// States captured at the segment's last round for the direct probes:
	// the round's broadcast and this client's upload (post-defense).
	lastGlobal []float64
	lastUpload *fl.Update
}

func newClientTimelines(rounds int) []*clientTimeline {
	tls := make([]*clientTimeline, numClients)
	for i := range tls {
		tls[i] = &clientTimeline{
			ogEnter: make([]time.Time, rounds+1), ogExit: make([]time.Time, rounds+1),
			buEnter: make([]time.Time, rounds+1), buExit: make([]time.Time, rounds+1),
			after: make([]time.Time, rounds+1),
		}
	}
	return tls
}

// hookTimer is the client-side fl.Defense wrapper. Name, Bind and Aggregate
// are forwarded by embedding; the optional interfaces the program
// type-asserts on a defense are forwarded by wrapDefense's variants.
type hookTimer struct {
	fl.Defense
	timelines   []*clientTimeline
	captureFrom int // rounds >= captureFrom copy their states for the probes
}

func (h *hookTimer) OnGlobalModel(clientID, round int, global []float64) []float64 {
	tl := h.timelines[clientID]
	tl.ogEnter[round] = time.Now()
	out := h.Defense.OnGlobalModel(clientID, round, global)
	tl.ogExit[round] = time.Now()
	return out
}

func (h *hookTimer) BeforeUpload(round int, global []float64, u *fl.Update) {
	tl := h.timelines[u.ClientID]
	tl.buEnter[round] = time.Now()
	h.Defense.BeforeUpload(round, global, u)
	tl.buExit[round] = time.Now()
	if round >= h.captureFrom {
		tl.lastGlobal = append(tl.lastGlobal[:0], global...)
		cp := *u
		cp.State = append([]float64(nil), u.State...)
		tl.lastUpload = &cp
	}
}

// StreamingAggregator forwards fl.StreamingCapable; nil is the interface's
// own "this rule cannot stream" answer, so a non-streaming inner defense
// keeps its meaning.
func (h *hookTimer) StreamingAggregator() fl.StreamingAggregator {
	return fl.StreamingOf(h.Defense)
}

// SetMeter forwards the cost-meter hook fl.NewSystem looks for.
func (h *hookTimer) SetMeter(m *metrics.CostMeter) {
	if s, ok := h.Defense.(interface{ SetMeter(*metrics.CostMeter) }); ok {
		s.SetMeter(m)
	}
}

// privateStore is the store surface the middleware client asserts before
// persisting a defense's private layers.
type privateStore interface {
	ExportStore(clientID int) map[int][]float64
	ImportStore(clientID int, layers map[int][]float64) error
}

// The mere presence of these two interfaces changes what the program does
// (a cohort-aware defense is refused quantization; a private store gets
// checkpointed), so the wrapper exposes them exactly when the inner defense
// does.
type (
	cohortTimer struct {
		*hookTimer
		fl.CohortAware
	}
	storeTimer struct {
		*hookTimer
		privateStore
	}
	cohortStoreTimer struct {
		*hookTimer
		fl.CohortAware
		privateStore
	}
)

// wrapDefense wraps inner so its two client-side hooks are timed into
// timelines, keeping every optional interface inner implements.
func wrapDefense(inner fl.Defense, timelines []*clientTimeline, captureFrom int) fl.Defense {
	h := &hookTimer{Defense: inner, timelines: timelines, captureFrom: captureFrom}
	ca, isCohort := inner.(fl.CohortAware)
	ps, isStore := inner.(privateStore)
	switch {
	case isCohort && isStore:
		return cohortStoreTimer{h, ca, ps}
	case isCohort:
		return cohortTimer{h, ca}
	case isStore:
		return storeTimer{h, ps}
	}
	return h
}

// exchange is what one server-side conn saw between two of its Writes: the
// Write itself and every Read up to the next Write. Index 0 precedes the
// first Write (the Hello read), 1 is the wire ack, 2+r is round r's
// broadcast and the upload that answers it, and the last is KindDone.
type exchange struct {
	wBytes, rBytes int64
	reads          int
	// Timestamps are taken only when tracing.
	wStart, wEnd        time.Time
	firstRead, lastRead time.Time
}

// firstBroadcastIndex is the exchange index of round 0's broadcast.
const firstBroadcastIndex = 2

// countedConn counts (and, when tracing, times) a server-side conn. The
// server serializes each session's I/O — register, then one exchange
// goroutine per round, then Done — so the record needs no lock.
type countedConn struct {
	net.Conn
	rec *wireRecorder
	ex  []exchange
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	e := &c.ex[len(c.ex)-1]
	e.rBytes += int64(n)
	e.reads++
	if c.rec.traced && n > 0 {
		now := time.Now()
		if e.firstRead.IsZero() {
			e.firstRead = now
		}
		e.lastRead = now
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	e := exchange{}
	if c.rec.traced {
		e.wStart = time.Now()
	}
	n, err := c.Conn.Write(p)
	e.wBytes = int64(n)
	if len(c.ex) == firstBroadcastIndex {
		// Set-up ends when the first broadcast has been written.
		c.rec.firstBroadcast.CompareAndSwap(0, int64(time.Since(c.rec.epoch)))
	}
	if c.rec.traced {
		e.wEnd = time.Now()
	}
	c.ex = append(c.ex, e)
	return n, err
}

// wireRecorder owns the conns a countingListener accepted.
type wireRecorder struct {
	traced bool
	// firstBroadcast is when, in nanoseconds after epoch (the segment's
	// start), the first round-0 broadcast finished writing; 0 until then.
	epoch          time.Time
	firstBroadcast atomic.Int64

	mu    sync.Mutex
	conns []*countedConn
}

// countingListener hands the server counted conns through
// flnet.ServerConfig.Listener.
type countingListener struct {
	net.Listener
	rec *wireRecorder
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countedConn{Conn: conn, rec: l.rec, ex: make([]exchange, 1, 64)}
	l.rec.mu.Lock()
	l.rec.conns = append(l.rec.conns, c)
	l.rec.mu.Unlock()
	return c, nil
}

// SetDeadline forwards the accept deadline the server sets for its
// registration phase.
func (l *countingListener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// span is one traced interval, written to trace-<workload>.json. Spans of
// one round share (segment, round); parent names the enclosing span.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Segment int    `json:"segment"`
	Round   int    `json:"round"`
	Client  int    `json:"client"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}
