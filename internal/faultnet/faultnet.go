// Package faultnet wraps net.Listener and net.Conn with a deterministic,
// per-connection fault schedule so tests can prove that the flnet
// federation survives real network failure modes: slow links (Delay),
// connections that die mid-stream (DropAfter), peers that vanish with a
// hard reset (Reset), and protocol-violating peers that replay their first
// frame (Duplicate).
//
// A Schedule maps the index of each accepted connection (0-based, in
// accept order) to a Plan; the same schedule therefore injects the same
// faults on every run. RandomSchedule derives a deterministic schedule
// from a seed for soak-style tests.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrInjected is wrapped by every error returned from an injected fault,
// so tests can distinguish scheduled faults from real failures.
var ErrInjected = errors.New("faultnet: injected fault")

// Kind selects a fault behavior for one connection.
type Kind int

// Fault kinds.
const (
	// None passes traffic through untouched.
	None Kind = iota
	// Delay sleeps Plan.Delay before every Read, simulating a straggler.
	Delay
	// DropAfter closes the connection once Plan.Bytes total bytes have
	// crossed it (reads plus writes), simulating a mid-stream failure.
	DropAfter
	// Reset closes the connection with a TCP RST (when the underlying
	// conn supports SetLinger) on the first Read or Write.
	Reset
	// Duplicate writes the bytes of the first Write twice, simulating a
	// peer that replays its hello frame.
	Duplicate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Delay:
		return "delay"
	case DropAfter:
		return "drop-after"
	case Reset:
		return "reset"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// Plan is the fault assigned to one connection.
type Plan struct {
	Kind Kind
	// Delay is the per-Read sleep for Kind Delay.
	Delay time.Duration
	// Bytes is the byte budget for Kind DropAfter.
	Bytes int
}

// Schedule returns the fault plan for the i-th accepted connection.
// Schedules must be pure functions of the index so runs are reproducible.
type Schedule func(conn int) Plan

// NoFaults is the identity schedule.
func NoFaults(int) Plan { return Plan{} }

// RandomSchedule derives a deterministic schedule from seed: connection i
// gets plans[h(seed,i) mod len(plans)]. With no plans it returns NoFaults.
func RandomSchedule(seed int64, plans ...Plan) Schedule {
	if len(plans) == 0 {
		return NoFaults
	}
	return func(conn int) Plan {
		// SplitMix64-style hash keeps the choice independent across
		// indices without shared rng state.
		z := uint64(seed) + uint64(conn)*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return plans[z%uint64(len(plans))]
	}
}

// Listener wraps an inner listener and applies schedule(i) to the i-th
// accepted connection.
type Listener struct {
	inner    net.Listener
	schedule Schedule

	mu sync.Mutex
	n  int
}

// Listen wraps inner. A nil schedule means NoFaults.
func Listen(inner net.Listener, schedule Schedule) *Listener {
	if schedule == nil {
		schedule = NoFaults
	}
	return &Listener{inner: inner, schedule: schedule}
}

// Accept accepts from the inner listener and wraps the connection with
// the next plan in the schedule.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	return WrapConn(conn, l.schedule(i)), nil
}

// Accepted reports how many connections have been accepted so far.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Conn applies one Plan to a wrapped connection. Safe for one concurrent
// reader plus one concurrent writer, like net.Conn itself.
type Conn struct {
	net.Conn
	plan Plan

	mu      sync.Mutex
	crossed int  // total bytes read + written
	dupDone bool // Duplicate already fired
	tripped bool // Reset/DropAfter already fired
}

// WrapConn applies plan to conn. Plans with Kind None return conn as-is.
func WrapConn(conn net.Conn, plan Plan) net.Conn {
	if plan.Kind == None {
		return conn
	}
	return &Conn{Conn: conn, plan: plan}
}

// trip hard-closes the connection, with a TCP RST when possible, and
// returns the injected error.
func (c *Conn) trip(op string) error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck // best-effort RST
	}
	c.Conn.Close()
	return fmt.Errorf("faultnet: %s %s: %w", c.plan.Kind, op, ErrInjected)
}

// budget returns how many of n bytes may still cross a DropAfter conn and
// whether the budget is already exhausted.
func (c *Conn) budget(n int) (allowed int, exhausted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tripped {
		return 0, true
	}
	remaining := c.plan.Bytes - c.crossed
	if remaining <= 0 {
		c.tripped = true
		return 0, true
	}
	if n > remaining {
		n = remaining
	}
	c.crossed += n
	return n, false
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	switch c.plan.Kind {
	case Delay:
		time.Sleep(c.plan.Delay)
	case Reset:
		c.mu.Lock()
		tripped := c.tripped
		c.tripped = true
		c.mu.Unlock()
		if !tripped {
			return 0, c.trip("read")
		}
		return 0, fmt.Errorf("faultnet: read on reset conn: %w", ErrInjected)
	case DropAfter:
		allowed, exhausted := c.budget(len(p))
		if exhausted {
			return 0, c.trip("read")
		}
		return c.Conn.Read(p[:allowed])
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	switch c.plan.Kind {
	case Reset:
		c.mu.Lock()
		tripped := c.tripped
		c.tripped = true
		c.mu.Unlock()
		if !tripped {
			return 0, c.trip("write")
		}
		return 0, fmt.Errorf("faultnet: write on reset conn: %w", ErrInjected)
	case DropAfter:
		allowed, exhausted := c.budget(len(p))
		if exhausted {
			return 0, c.trip("write")
		}
		n, err := c.Conn.Write(p[:allowed])
		if err == nil && allowed < len(p) {
			// The rest of the frame is dropped on the floor; kill the
			// conn so both sides observe the failure.
			return n, c.trip("write")
		}
		return n, err
	case Duplicate:
		c.mu.Lock()
		first := !c.dupDone
		c.dupDone = true
		c.mu.Unlock()
		if first {
			if n, err := c.Conn.Write(p); err != nil {
				return n, err
			}
		}
		return c.Conn.Write(p)
	}
	return c.Conn.Write(p)
}
