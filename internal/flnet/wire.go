// Package flnet is the network layer of the DINAR middleware: a TCP
// client/server protocol that runs the same federated rounds as the
// in-process fl.System, but across real sockets. Examples and the
// cmd/dinar-server / cmd/dinar-client tools deploy it; experiments default to
// the in-process system for determinism and speed.
//
// The wire protocol has one encoding: every frame is a 4-byte little-endian
// payload length followed by a fixed-offset binary payload (the layout
// tables are in wirev3.go). The round flow is:
//
//	client -> server  Hello{ClientID, Version, LastRound, Job, WireCaps}
//	server -> client  Wire{WireCaps, QuantSeed, TopK}  (iff Hello advertised capabilities)
//	server -> client  Global{Round, State}             (per round)
//	client -> server  Update{Round, State, NumSamples}
//	server -> client  Done{State: final global}
//	server -> client  Drain{RetryAfterMs}              (graceful shutdown / load shed)
//
// A client may disconnect and re-register at any time; the Hello frame's
// LastRound (the last round the client completed, -1 for a fresh client)
// lets the server resync a rejoining client by resending the current
// round's global state. Version is validated at Hello time so mismatched
// deployments fail fast with a KindError frame instead of mid-round.
package flnet

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/fl"
	"repro/internal/telemetry"
)

// Wire telemetry: frames and bytes in each direction, counted at the
// codec so every caller (server, client, tests) is covered.
var (
	telTxFrames = telemetry.NewCounter("dinar_wire_tx_frames_total", "protocol frames written")
	telRxFrames = telemetry.NewCounter("dinar_wire_rx_frames_total", "protocol frames read")
	telTxBytes  = telemetry.NewCounter("dinar_wire_tx_bytes_total", "bytes written to the wire (headers included)")
	telRxBytes  = telemetry.NewCounter("dinar_wire_rx_bytes_total", "bytes read from the wire (headers included)")
)

// ProtocolVersion is the wire protocol version carried in every Hello
// frame; a server turns any other version away with a KindError. Version 5
// writes a sparse quantized section's indices as varint gaps, where a
// version 4 peer reads absolute u32s; version 4 wrote a flate-flagged
// float64 state section as byte planes, which a version 3 peer would
// inflate as one stream.
const ProtocolVersion = 5

// Capability bits a client advertises in Hello.WireCaps and the server
// answers (intersected with its own configuration) in the KindWire ack.
const (
	// CapBinary asks for the KindWire ack: every payload codec below needs
	// it, and a Hello without it gets a session of plain frames (raw
	// float64 states, no ack).
	CapBinary uint32 = 1 << iota
	// CapFlate enables per-frame flate compression of state sections:
	// float64 states go out as byte planes of which only the compressible
	// ones are deflated, quantized payloads are deflated whole (and sent as
	// they are when that does not shrink them).
	CapFlate
	// CapQuantInt8 / CapQuantInt16 enable seeded stochastic quantization of
	// client uploads (the levels' width differs; at most one is negotiated).
	CapQuantInt8
	CapQuantInt16
	// CapTopK additionally sparsifies quantized uploads to the negotiated
	// top-k fraction of coordinates.
	CapTopK
	// CapDelta enables delta-encoded state sections against a broadcast
	// both ends hold: global broadcasts against the client's last completed
	// round and, on unquantized sessions with CapFlate, uploads against the
	// round's own broadcast.
	CapDelta
)

// ClientCaps is everything a current client can speak; the server's ack
// narrows it to the deployment's configuration.
const ClientCaps = CapBinary | CapFlate | CapQuantInt8 | CapQuantInt16 | CapTopK | CapDelta

// Kind discriminates protocol messages.
type Kind int

// Message kinds.
const (
	KindHello Kind = iota + 1
	KindGlobal
	KindUpdate
	KindDone
	KindError
	// KindDrain tells a client the server is draining (graceful shutdown)
	// or shedding load: back off for RetryAfterMs milliseconds and redial,
	// without burning the reconnect retry budget. Sent to live clients
	// when Shutdown begins, to registrants arriving during a drain, and to
	// connections shed by accept-path admission control.
	KindDrain
	// KindWire is the server's answer to a capability-bearing Hello:
	// WireCaps carries the negotiated intersection, QuantSeed and TopK the
	// quantization parameters. Both ends apply the negotiated payload
	// codecs to every frame after it.
	KindWire
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindGlobal:
		return "global"
	case KindUpdate:
		return "update"
	case KindDone:
		return "done"
	case KindError:
		return "error"
	case KindDrain:
		return "drain"
	case KindWire:
		return "wire"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is the single frame type of the protocol; fields are used
// depending on Kind.
type Message struct {
	Kind       Kind
	ClientID   int
	Round      int
	State      []float64
	NumSamples int
	// Version is the sender's ProtocolVersion; only meaningful on Hello.
	Version int
	// LastRound is the last round the client completed, -1 for a fresh
	// client; only meaningful on Hello. The server uses it to resync a
	// rejoining client.
	LastRound int
	// Err carries a human-readable error for KindError frames.
	Err string
	// RetryAfterMs is the suggested client back-off in milliseconds; only
	// meaningful on KindDrain (0 means the client-side default).
	RetryAfterMs int
	// Cohort lists the round's sampled client ids; only sent on KindGlobal,
	// and only when the defense is cohort-aware (secure aggregation needs
	// each client to know its round's mask peers — see fl.CohortAware).
	Cohort []int
	// Job names the federation job this client wants to join; only
	// meaningful on Hello, and only when dialing a multi-job service-mode
	// server, which routes the connection to the named job before the
	// job's own registration logic ever sees it. Empty against a
	// single-federation server.
	Job string
	// WireCaps is the capability bitmask: on Hello the sender's supported
	// codecs, on KindWire the server's negotiated subset.
	WireCaps uint32
	// QuantSeed and TopK ride the KindWire ack: the stochastic-rounding
	// seed every quantized payload of the session must use, and the top-k
	// sparsification fraction (0 = dense).
	QuantSeed int64
	TopK      float64
	// Canon, set by the server on KindGlobal sends when quantized delta
	// broadcasts are configured, is the round's canonical quantized delta
	// against the previous round's broadcast. A delta-capable codec ships
	// it to peers anchored at round-1 instead of State; codec-free sessions
	// and full resends ignore it, and it is never populated on received
	// messages (ReadMessage reconstructs State instead).
	Canon *fl.DeltaPayload
}

// maxFrameBytes bounds a frame to protect against corrupt length prefixes
// (128 MiB is far above any scaled model's state vector).
const maxFrameBytes = 128 << 20

// maxHelloBytes bounds a connection's first frame: nothing is known about
// the peer yet, and a Hello is a fixed header plus a job name.
const maxHelloBytes = 64 << 10

// maxPooledBytes caps the capacity a buffer may retire to a pool with: one
// outlier frame (a giant model, a hostile-but-valid length) must not pin a
// near-maxFrameBytes backing array in the pool for the process lifetime.
// Buffers above the cap are dropped and fall back to the allocator.
const maxPooledBytes = 16 << 20

// Frame buffers are pooled: state vectors make frames multi-megabyte, and
// without pooling every round re-allocates them on both ends of every
// connection. Pooled buffers keep their high-water capacity up to
// maxPooledBytes, so steady-state rounds reuse the same backing arrays.
//
// Byte planes on their way into or out of flate have a pool of their own:
// a plane is an eighth of its frame, and one pool for both sizes would hand
// planes' buffers to frames.
var (
	writeBufs = bufPool[*bytes.Buffer]{size: (*bytes.Buffer).Cap, fresh: func() *bytes.Buffer { return new(bytes.Buffer) }}
	readBufs  = bufPool[*[]byte]{size: byteCap, fresh: func() *[]byte { return new([]byte) }}
	planeBufs = bufPool[*[]byte]{size: byteCap, fresh: func() *[]byte { return new([]byte) }}
)

func byteCap(bp *[]byte) int { return cap(*bp) }

// maxDrawn bounds how many buffers one get draws from a pool.
const maxDrawn = 16

// bufPool keeps buffers in a sync.Pool, so a collection still drops what an
// idle process holds, but does not hand out the pool's latest buffer as a
// bare sync.Pool does. When the reads of some rounds do not overlap, that
// one buffer serves them all and the rest wait unused until a second
// collection drops them; the next round whose reads overlap re-allocates a
// whole frame, and how often that happened depended on scheduling. get
// draws every held buffer instead, which keeps each in use, and hands out
// the smallest with room for n bytes, or the largest when none has room.
// put drops buffers past maxPooledBytes.
type bufPool[T any] struct {
	size  func(T) int
	fresh func() T

	mu   sync.Mutex
	pool sync.Pool
}

func (p *bufPool[T]) get(n int) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	best, ok := p.pool.Get().(T)
	if !ok {
		return p.fresh()
	}
	var rest [maxDrawn]T
	k := 0
	for ; k < maxDrawn; k++ {
		x, ok := p.pool.Get().(T)
		if !ok {
			break
		}
		if c, b := p.size(x), p.size(best); c >= n && (b < n || c < b) || b < n && c > b {
			x, best = best, x
		}
		rest[k] = x
	}
	for _, x := range rest[:k] {
		p.pool.Put(x)
	}
	return best
}

func (p *bufPool[T]) put(x T) {
	if p.size(x) <= maxPooledBytes {
		p.pool.Put(x)
	}
}

// readPayload reads n bytes (a frame payload, or what a deflate stream
// inflates to) into a buffer drawn from pool with the checkpoint envelope's
// incremental-read discipline: capacity grows as bytes actually arrive
// (doubling from a small start), so a corrupt or hostile length prefix on a
// short stream costs a short read, not an n-byte allocation. The last growth
// leaves an eighth of n spare: the frames of one federation grow by a few
// bytes a round, and a buffer sized exactly to one would be re-grown, a
// whole frame copied, for the next. Callers must return the handle to pool.
func readPayload(pool *bufPool[*[]byte], r io.Reader, n int) ([]byte, *[]byte, error) {
	bp := pool.get(n)
	buf := (*bp)[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grow := min(max(2*cap(buf), 64<<10), n)
			if grow == n {
				grow += n / 8
			}
			buf = append(make([]byte, 0, grow), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			*bp = buf
			pool.put(bp)
			return nil, nil, err
		}
	}
	*bp = buf
	return buf, bp, nil
}

// WriteMessage writes msg as one frame with no payload codec: what both
// ends speak before (and without) a KindWire negotiation.
func WriteMessage(w io.Writer, msg *Message) error { return WriteMessageWith(w, msg, nil) }

// ReadMessage reads one frame with no payload codec into a fresh Message.
func ReadMessage(r io.Reader) (*Message, error) {
	var msg Message
	if err := ReadMessageWith(r, &msg, nil); err != nil {
		return nil, err
	}
	return &msg, nil
}

// ReadHello reads a connection's first frame, which must be a Hello of at
// most maxHelloBytes. The server's registration path and the service front
// door both admit connections through it.
func ReadHello(r io.Reader) (*Message, error) {
	var msg Message
	if err := readFrame(r, &msg, nil, maxHelloBytes); err != nil {
		return nil, err
	}
	if msg.Kind != KindHello {
		return nil, fmt.Errorf("flnet: want a hello frame, got %v", msg.Kind)
	}
	return &msg, nil
}

// statePool recycles state-vector buffers between rounds. Updates released
// after aggregation return here; the next round's reads decode into them.
// Every holder in it carries a buffer; emptied holders wait in
// stateHolderPool, so storing a buffer neither allocates a holder nor draws
// — and overwrites — one that still carries a buffer.
var (
	statePool       sync.Pool
	stateHolderPool = sync.Pool{New: func() any { return new([]float64) }}
)

// GetState returns a pooled state buffer (length 0, whatever capacity it
// retired with), or nil when the pool is empty.
func GetState() []float64 {
	sp, _ := statePool.Get().(*[]float64)
	if sp == nil {
		return nil
	}
	s := *sp
	*sp = nil
	stateHolderPool.Put(sp)
	return s[:0]
}

// PutState returns a state buffer to the pool. Callers must not retain any
// alias past the call. Oversized buffers (beyond maxPooledBytes) are
// dropped, mirroring the frame-buffer pools.
func PutState(s []float64) {
	if cap(s) == 0 || cap(s)*8 > maxPooledBytes {
		return
	}
	sp := stateHolderPool.Get().(*[]float64)
	*sp = s
	statePool.Put(sp)
}
