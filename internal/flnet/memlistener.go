package flnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrListenerClosed is returned by a MemListener's Accept, Dial and Push
// after Close.
var ErrListenerClosed = errors.New("flnet: in-memory listener closed")

// ErrBacklogFull is returned by Push when the pending-connection backlog
// is full — the caller's signal to shed the client (a drain notice telling
// it to retry) instead of queueing unboundedly.
var ErrBacklogFull = errors.New("flnet: in-memory listener backlog full")

// acceptTimeoutError satisfies net.Error with Timeout() true, which the
// registration loop uses to tell a deadline expiry from a fatal accept
// failure, exactly as on a *net.TCPListener.
type acceptTimeoutError struct{}

func (acceptTimeoutError) Error() string   { return "flnet: accept deadline exceeded" }
func (acceptTimeoutError) Timeout() bool   { return true }
func (acceptTimeoutError) Temporary() bool { return true }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// MemListener is the in-memory net.Listener behind ServerConfig.Listener
// wherever no socket is wanted. It has two producers: Dial, for a fleet of
// in-process clients (the server half of a net.Pipe is queued for Accept,
// so 10k clients cost no file descriptors; net.Pipe supports deadlines, so
// IO timeouts work unchanged), and Push, for a front door that accepted the
// connection elsewhere and routes it here, with the bounded backlog as its
// backpressure boundary.
type MemListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once

	// gate orders enqueueing against Close: Dial and Push send into conns
	// only while holding it for reading with shut unset, and Close sets shut
	// under the write lock before it drains the backlog. Without it a
	// connection could be queued after the drain, stranding that client
	// until its IO timeout.
	gate sync.RWMutex
	shut bool

	mu       sync.Mutex
	deadline time.Time
	dlCh     chan struct{} // closed and replaced on every SetDeadline
}

var _ net.Listener = (*MemListener)(nil)

// ListenMem returns a MemListener holding up to backlog pending
// connections (minimum 1).
func ListenMem(backlog int) *MemListener {
	if backlog < 1 {
		backlog = 1
	}
	return &MemListener{
		conns:  make(chan net.Conn, backlog),
		closed: make(chan struct{}),
		dlCh:   make(chan struct{}),
	}
}

// Dial connects a new in-process client: the server half of a pipe is
// queued for Accept and the client half returned. It blocks while the
// backlog is full, until the listener closes or ctx ends.
func (l *MemListener) Dial(ctx context.Context) (net.Conn, error) {
	l.gate.RLock()
	defer l.gate.RUnlock()
	if l.shut {
		return nil, ErrListenerClosed
	}
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, ErrListenerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Push queues an already-established connection without blocking: a full
// backlog returns ErrBacklogFull rather than stalling the caller's shared
// accept path behind one slow server.
func (l *MemListener) Push(conn net.Conn) error {
	l.gate.RLock()
	defer l.gate.RUnlock()
	if l.shut {
		return ErrListenerClosed
	}
	select {
	case l.conns <- conn:
		return nil
	default:
		return ErrBacklogFull
	}
}

// Accept implements net.Listener, honoring the deadline set via
// SetDeadline (expiry returns a net.Error with Timeout() true, like a
// *net.TCPListener).
func (l *MemListener) Accept() (net.Conn, error) {
	for {
		// A closed listener wins over an expired deadline, matching the
		// error a *net.TCPListener reports after Close.
		select {
		case <-l.closed:
			return nil, ErrListenerClosed
		default:
		}
		l.mu.Lock()
		deadline := l.deadline
		changed := l.dlCh
		l.mu.Unlock()

		var timeout <-chan time.Time
		var timer *time.Timer
		if !deadline.IsZero() {
			wait := time.Until(deadline)
			if wait <= 0 {
				return nil, acceptTimeoutError{}
			}
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case conn := <-l.conns:
			if timer != nil {
				timer.Stop()
			}
			return conn, nil
		case <-l.closed:
			if timer != nil {
				timer.Stop()
			}
			return nil, ErrListenerClosed
		case <-timeout:
			return nil, acceptTimeoutError{}
		case <-changed:
			// Deadline replaced (possibly with "now" to force a wakeup, as
			// the drain path does on TCP listeners); recompute and wait
			// again.
			if timer != nil {
				timer.Stop()
			}
		}
	}
}

// SetDeadline implements the optional listener-deadline interface the
// registration phase relies on. It wakes any blocked Accept so a shortened
// deadline takes effect immediately.
func (l *MemListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	l.deadline = t
	close(l.dlCh)
	l.dlCh = make(chan struct{})
	l.mu.Unlock()
	return nil
}

// Close implements net.Listener. Queued-but-unaccepted connections are
// closed so their clients' reads fail fast instead of timing out.
func (l *MemListener) Close() error {
	// Closing the channel first wakes every Dial blocked on a full backlog,
	// so the write lock below is not kept waiting by one.
	l.once.Do(func() { close(l.closed) })
	l.gate.Lock()
	l.shut = true
	l.gate.Unlock()
	for {
		select {
		case conn := <-l.conns:
			conn.Close()
		default:
			return nil
		}
	}
}

// Addr implements net.Listener.
func (l *MemListener) Addr() net.Addr { return memAddr{} }
