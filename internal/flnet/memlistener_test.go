package flnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestMemListenerDialAccept(t *testing.T) {
	ln := ListenMem(4)
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Dial(context.Background())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		_, err = conn.Write([]byte("hi"))
		done <- err
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("read %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMemListenerDeadline(t *testing.T) {
	ln := ListenMem(1)
	defer ln.Close()

	// An already-expired deadline fails immediately with a timeout
	// net.Error, like a *net.TCPListener.
	ln.SetDeadline(time.Now().Add(-time.Second))
	_, err := ln.Accept()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}

	// Shortening the deadline must wake a Accept already blocked on the
	// old (infinite) one — the drain path depends on this.
	ln.SetDeadline(time.Time{})
	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ln.SetDeadline(time.Now())
	select {
	case err := <-errCh:
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want timeout net.Error, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not wake on SetDeadline")
	}

	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("want ErrListenerClosed, got %v", err)
	}
	if _, err := ln.Dial(context.Background()); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("want ErrListenerClosed after close, got %v", err)
	}
	if err := ln.Push(nil); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("Push after close: want ErrListenerClosed, got %v", err)
	}
}

// TestMemListenerPushAndBlockedDial pins the two producers' behaviour on a
// full backlog: Push refuses at once, Dial waits — for room, for Close, or
// for its context.
func TestMemListenerPushAndBlockedDial(t *testing.T) {
	ln := ListenMem(1)
	server, client := net.Pipe()
	defer client.Close()
	if err := ln.Push(server); err != nil {
		t.Fatal(err)
	}
	other, otherPeer := net.Pipe()
	defer other.Close()
	defer otherPeer.Close()
	if err := ln.Push(other); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("Push on a full backlog: want ErrBacklogFull, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ln.Dial(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Dial on a full backlog with a dead context: want context.Canceled, got %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Dial(context.Background())
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Dial block on the backlog
	ln.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrListenerClosed) {
			t.Fatalf("Dial woken by Close: want ErrListenerClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake a Dial blocked on a full backlog")
	}
	// Close shut the queued connection, so its peer reads EOF.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer of a queued connection after Close: want EOF, got %v", err)
	}
}

// TestMemListenerDialCloseHammer races Dial against Close: once Close has
// returned, every connection Dial handed out was either accepted or is
// already closed — none sits in the backlog behind the drain, where its
// client would wait out a whole IO timeout.
func TestMemListenerDialCloseHammer(t *testing.T) {
	const dialers = 4
	iterations := 3000
	if testing.Short() {
		iterations = 300
	}
	for it := 0; it < iterations; it++ {
		ln := ListenMem(2 * dialers)
		var acceptors sync.WaitGroup
		acceptors.Add(1)
		go func() {
			defer acceptors.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// Mark the connection as accepted for its client.
				acceptors.Add(1)
				go func() {
					defer acceptors.Done()
					conn.Write([]byte{'A'}) //nolint:errcheck // the client may have hung up
					conn.Close()
				}()
			}
		}()
		// Dialers run flat out until Close turns them away; Close lands once
		// the first connection is out, so the rest race it.
		handed := make(chan net.Conn)
		var wg sync.WaitGroup
		for d := 0; d < dialers; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := ln.Dial(context.Background())
					if err != nil {
						return
					}
					handed <- conn
				}
			}()
		}
		go func() {
			wg.Wait()
			close(handed)
		}()
		var conns []net.Conn
		for conn := range handed {
			if conns = append(conns, conn); len(conns) == 1 {
				ln.Close()
			}
		}
		for _, conn := range conns {
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			var b [1]byte
			if n, err := conn.Read(b[:]); n == 0 && err != io.EOF {
				t.Fatalf("iteration %d: a dialed connection is neither accepted nor closed after Close returned: %v", it, err)
			}
			conn.Close()
		}
		acceptors.Wait()
	}
}
