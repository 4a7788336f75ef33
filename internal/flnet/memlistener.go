package flnet

import (
	"context"
	"errors"
	"net"
	"sync"
)

// ErrListenerClosed is returned by a MemListener's Accept and Dial after
// Close.
var ErrListenerClosed = errors.New("flnet: in-memory listener closed")

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// MemListener is the in-memory net.Listener behind ServerConfig.Listener
// wherever no socket is wanted. Its one producer is Dial, for a fleet of
// in-process clients: the server half of a net.Pipe is queued for Accept, so
// 10k clients cost no file descriptors, and net.Pipe supports deadlines, so
// IO timeouts work unchanged.
type MemListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once

	// gate orders enqueueing against Close: Dial sends into conns only
	// while holding it for reading with shut unset, and Close sets shut
	// under the write lock before it drains the backlog. Without it a
	// connection could be queued after the drain, stranding that client
	// until its IO timeout.
	gate sync.RWMutex
	shut bool
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

// Accept implements net.Listener.
func (l *MemListener) Accept() (net.Conn, error) {
	// A closed listener wins over a queued connection, matching the error a
	// *net.TCPListener reports after Close.
	select {
	case <-l.closed:
		return nil, ErrListenerClosed
	default:
	}
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.closed:
		return nil, ErrListenerClosed
	}
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
