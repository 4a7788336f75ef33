package flnet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestLogfSerializedUnderRejoinHammer reproduces the unsynchronized-Logf
// bug: the acceptor's registrations, per-client round goroutines, and the
// round loop all log during an active round with clients dropping and
// rejoining.
// Run under -race (`make telemetry`), the test asserts every Logf call is
// serialized — no two invocations overlap — and every line arrives whole.
func TestLogfSerializedUnderRejoinHammer(t *testing.T) {
	const rejoinID = 1
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Drop client 1's first connection right after its registration
	// handshake so the acceptor keeps logging rejoins while rounds are in
	// flight.
	handshake := handshakeBytes(t, rejoinID)
	schedule := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{Kind: faultnet.DropAfter, Bytes: handshake}
		}
		return faultnet.Plan{}
	}

	// Concurrency detector: inFlight must never exceed 1 if the server
	// serializes Logf. The lines slice is mutated without its own lock on
	// purpose — under -race, any unserialized pair of Logf calls is a
	// reported data race even if the overlap counter misses the window.
	var inFlight, maxInFlight atomic.Int32
	var lines []string
	logf := func(format string, args ...any) {
		n := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if n <= max || maxInFlight.CompareAndSwap(max, n) {
				break
			}
		}
		lines = append(lines, fmt.Sprintf(format, args...))
		inFlight.Add(-1)
	}

	srv, ln, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    2,
		MinClients:    2,
		Rounds:        3,
		RoundDeadline: 30 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
		Logf:          logf,
	}, schedule)

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	runClient := func(id int) {
		defer wg.Done()
		_, err := RunClient(ctx, ClientConfig{
			Addr:        srv.Addr().String(),
			Trainer:     bed.trainer(id),
			Defense:     bed.defense("none"),
			MaxRetries:  5,
			BaseBackoff: 20 * time.Millisecond,
		})
		if err != nil {
			errCh <- err
		}
	}
	wg.Add(1)
	go runClient(rejoinID)
	for ln.Accepted() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	wg.Add(1)
	go runClient(0)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}

	if got := maxInFlight.Load(); got > 1 {
		t.Fatalf("Logf entered concurrently (%d overlapping calls)", got)
	}
	if len(lines) == 0 {
		t.Fatal("no log lines recorded")
	}
	var sawRejoin, sawRound bool
	for _, line := range lines {
		if strings.Contains(line, "\n") {
			t.Errorf("log line contains embedded newline: %q", line)
		}
		if !strings.HasPrefix(line, "flnet: ") {
			t.Errorf("torn log line (missing prefix): %q", line)
		}
		if strings.Contains(line, "rejoined") {
			sawRejoin = true
		}
		if strings.Contains(line, "aggregated") {
			sawRound = true
		}
	}
	if !sawRejoin || !sawRound {
		t.Fatalf("hammer did not exercise both log paths (rejoin=%v round=%v):\n%s",
			sawRejoin, sawRound, strings.Join(lines, "\n"))
	}

	// The structured event ring retains the same events with round/client
	// attribution.
	events := srv.Events()
	if len(events) == 0 {
		t.Fatal("no structured events retained")
	}
	var attributed bool
	for _, ev := range events {
		if strings.Contains(ev.Msg, "rejoined") && ev.Client == rejoinID {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("rejoin event lacks client attribution: %+v", events)
	}

	// Per-phase round timing is populated on every aggregated round.
	for _, rep := range srv.Reports() {
		if rep.Timing.Broadcast <= 0 || rep.Timing.Wait <= 0 {
			t.Errorf("round %d missing broadcast/wait timing: %+v", rep.Round, rep.Timing)
		}
		if rep.Timing.Aggregate <= 0 {
			t.Errorf("round %d missing aggregate timing: %+v", rep.Round, rep.Timing)
		}
		if rep.Timing.Screen <= 0 {
			t.Errorf("round %d missing screen timing (screen is on by default): %+v", rep.Round, rep.Timing)
		}
	}
}

// TestServerHealthSnapshot checks the Health transitions a round trip
// through a complete federation.
func TestServerHealthSnapshot(t *testing.T) {
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   2,
		Rounds:       2,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    30 * time.Second,
	}, nil)

	h := srv.Health()
	if h.Status != "waiting" || h.Round != 0 || h.Rounds != 2 || h.CheckpointRound != -1 {
		t.Fatalf("pre-registration health = %+v", h)
	}
	if h.NumClients != 2 || h.MinClients != 2 {
		t.Fatalf("health cohort config = %+v", h)
	}

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(ctx, ClientConfig{
				Addr:    srv.Addr().String(),
				Trainer: bed.trainer(id),
				Defense: bed.defense("none"),
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	h = srv.Health()
	if h.Status != "done" || h.Round != 2 {
		t.Fatalf("post-run health = %+v", h)
	}
}
