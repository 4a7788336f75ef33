package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEventLogSerializesSink proves the whole-line guarantee: many
// goroutines log concurrently, and a reentrancy detector inside the sink
// verifies no two sink invocations ever overlap (run under -race via
// `make telemetry`).
func TestEventLogSerializesSink(t *testing.T) {
	var inSink atomic.Int32
	var lines []string
	l := NewEventLog(64, func(line string) {
		if inSink.Add(1) != 1 {
			t.Error("sink entered concurrently")
		}
		lines = append(lines, line) // safe only because the sink is serialized
		inSink.Add(-1)
	})
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Eventf(i, g, "goroutine %d event %d", g, i)
			}
		}()
	}
	wg.Wait()
	if len(lines) != goroutines*perG {
		t.Fatalf("sink saw %d lines, want %d", len(lines), goroutines*perG)
	}
	for _, line := range lines {
		var g, i int
		if _, err := fmt.Sscanf(line, "goroutine %d event %d", &g, &i); err != nil {
			t.Fatalf("interleaved or malformed line %q: %v", line, err)
		}
	}
}

// TestEventLogRing checks the bounded ring keeps the newest events in
// order and Events returns them oldest first.
func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4, nil)
	for i := 0; i < 10; i++ {
		l.Eventf(i, -1, "event %d", i)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantRound := 6 + i
		if ev.Round != wantRound || ev.Msg != fmt.Sprintf("event %d", wantRound) {
			t.Fatalf("ring[%d] = round %d %q, want round %d", i, ev.Round, ev.Msg, wantRound)
		}
		if ev.Client != -1 {
			t.Fatalf("ring[%d].Client = %d, want -1", i, ev.Client)
		}
	}
}

// TestEventLogNilSinkAndMinCapacity: a nil sink only records, and
// capacity is clamped to at least 1.
func TestEventLogNilSinkAndMinCapacity(t *testing.T) {
	l := NewEventLog(0, nil)
	l.Eventf(-1, -1, "only %s", "line")
	evs := l.Events()
	if len(evs) != 1 || !strings.Contains(evs[0].Msg, "only line") {
		t.Fatalf("events = %+v, want one 'only line'", evs)
	}
	if evs[0].Round != -1 || evs[0].Client != -1 {
		t.Fatalf("want round=-1 client=-1, got %d/%d", evs[0].Round, evs[0].Client)
	}
}
