package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipe returns a wrapped server-side conn (per plan) and the raw client
// side of a real TCP connection.
func pipe(t *testing.T, plan Plan) (server net.Conn, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw := <-done
	if raw == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); raw.Close() })
	return WrapConn(raw, plan), client
}

func TestNonePassesThrough(t *testing.T) {
	srv, cli := pipe(t, Plan{})
	if _, wrapped := srv.(*Conn); wrapped {
		t.Fatal("None plan should not wrap")
	}
	go cli.Write([]byte("hello")) //nolint:errcheck
	buf := make([]byte, 5)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
}

func TestDelaySlowsReads(t *testing.T) {
	srv, cli := pipe(t, Plan{Kind: Delay, Delay: 50 * time.Millisecond})
	go cli.Write([]byte("x")) //nolint:errcheck
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("read returned after %v, want >= 50ms delay", d)
	}
}

func TestResetTripsOnFirstIO(t *testing.T) {
	srv, cli := pipe(t, Plan{Kind: Reset})
	if _, err := srv.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The peer observes the dead connection.
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cli.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read should fail after reset")
	}
	// Subsequent IO on the tripped conn keeps failing.
	if _, err := srv.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected on reuse, got %v", err)
	}
}

func TestDropAfterBudget(t *testing.T) {
	srv, cli := pipe(t, Plan{Kind: DropAfter, Bytes: 4})
	n, err := srv.Write([]byte("abcdef"))
	if err == nil {
		t.Fatal("write past budget should fail")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n != 4 {
		t.Fatalf("wrote %d bytes, want the 4-byte budget", n)
	}
	buf := make([]byte, 8)
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadFull(cli, buf[:4])
	if got != 4 || string(buf[:4]) != "abcd" {
		t.Fatalf("peer got %d bytes %q", got, buf[:got])
	}
}

func TestDuplicateRepeatsFirstWrite(t *testing.T) {
	srv, cli := pipe(t, Plan{Kind: Duplicate})
	if _, err := srv.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hihi!")) {
		t.Fatalf("peer got %q, want duplicated first write", buf)
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	plans := []Plan{{Kind: None}, {Kind: Reset}, {Kind: Delay, Delay: time.Millisecond}}
	a := RandomSchedule(42, plans...)
	b := RandomSchedule(42, plans...)
	seenKinds := map[Kind]bool{}
	for i := 0; i < 64; i++ {
		if a(i) != b(i) {
			t.Fatalf("schedule not deterministic at %d", i)
		}
		seenKinds[a(i).Kind] = true
	}
	if len(seenKinds) < 2 {
		t.Fatal("schedule never varies")
	}
	if RandomSchedule(7)(0).Kind != None {
		t.Fatal("empty plan list should mean no faults")
	}
}

func TestListenerAppliesScheduleInAcceptOrder(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Listen(inner, func(i int) Plan {
		if i == 0 {
			return Plan{Kind: Reset}
		}
		return Plan{}
	})
	defer ln.Close()

	for i := 0; i < 2; i++ {
		cli, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		srv, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		_, err = srv.Write([]byte("x"))
		if i == 0 && !errors.Is(err, ErrInjected) {
			t.Fatalf("conn 0: want reset, got %v", err)
		}
		if i == 1 && err != nil {
			t.Fatalf("conn 1: want clean write, got %v", err)
		}
	}
	if ln.Accepted() != 2 {
		t.Fatalf("accepted %d, want 2", ln.Accepted())
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{None, Delay, DropAfter, Reset, Duplicate, Kind(99)} {
		if k.String() == "" {
			t.Fatalf("kind %d renders empty", int(k))
		}
	}
}
