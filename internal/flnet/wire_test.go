package flnet

import (
	"bytes"
	"runtime"
	"testing"
)

// TestMessageRoundTrip encodes and decodes a representative Message for
// every Kind through the codec-free WriteMessage/ReadMessage pair, covering
// the handshake fields (Job, WireCaps, QuantSeed, TopK) and the KindError
// payload.
func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: KindHello, ClientID: 3, Version: ProtocolVersion, LastRound: -1},
		{Kind: KindHello, ClientID: 0, Version: ProtocolVersion, LastRound: 7, Job: "tenant-a", WireCaps: ClientCaps},
		{Kind: KindWire, Version: ProtocolVersion, WireCaps: CapBinary | CapQuantInt8 | CapTopK, QuantSeed: -5, TopK: 0.25},
		{Kind: KindGlobal, Round: 4, State: []float64{0.25, -1.5, 3}},
		{Kind: KindUpdate, ClientID: 1, Round: 4, State: []float64{1, 2}, NumSamples: 128},
		{Kind: KindDone, State: []float64{0.5}},
		{Kind: KindError, Err: "flnet: version mismatch"},
		{Kind: KindDrain, RetryAfterMs: 250},
	}
	for _, want := range msgs {
		t.Run(want.Kind.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, &want); err != nil {
				t.Fatal(err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertMessageEqual(t, got, &want)
		})
	}
}

// TestReadMessageTrailingData ensures a decoder consumes exactly one
// frame, leaving subsequent frames intact on the stream.
func TestReadMessageTrailingData(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMessage(&buf, &Message{Kind: KindGlobal, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Round != i {
			t.Fatalf("frame %d decoded round %d", i, msg.Round)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("expected EOF error after last frame")
	}
}

// TestPooledBuffersBigThenSmall round-trips a large frame followed by many
// small ones: the pooled write buffer and read payload keep their high-water
// capacity, so any stale-tail or length-accounting bug in the pooling shows
// up as corrupt small frames. It also checks decoded state never aliases the
// pooled payload (messages must stay valid after the pool buffer is reused).
func TestPooledBuffersBigThenSmall(t *testing.T) {
	big := make([]float64, 100_000)
	for i := range big {
		big[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindGlobal, Round: 0, State: big}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		msg := &Message{Kind: KindUpdate, ClientID: i, Round: i, State: []float64{float64(i)}, NumSamples: i}
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}

	first, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.State) != len(big) {
		t.Fatalf("big frame state length %d, want %d", len(first.State), len(big))
	}
	for i := 1; i <= 8; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("small frame %d after big: %v", i, err)
		}
		if msg.ClientID != i || msg.Round != i || msg.NumSamples != i ||
			len(msg.State) != 1 || msg.State[0] != float64(i) {
			t.Fatalf("small frame %d corrupted: %+v", i, *msg)
		}
	}
	// The big message must have survived the pool reuse above untouched.
	for i, v := range first.State {
		if v != float64(i)*0.5 {
			t.Fatalf("big state[%d] = %v after pool reuse, want %v", i, v, float64(i)*0.5)
		}
	}
}

// TestStatePoolRetainsCohort pins that the pool keeps every buffer it is
// given: a materialized round releases its N uploads back to back and the
// next round draws N. (PutState used to draw its holder from the pool it
// was filling, so the second Put could overwrite — and lose — the first.)
// sync.Pool itself may drop a buffer (a GC, a goroutine migrating between
// Ps, every fourth Put under the race detector), so one clean pass in
// twenty is the requirement.
func TestStatePoolRetainsCohort(t *testing.T) {
	const n, dim = 4, 1000
	for attempt := 0; attempt < 20; attempt++ {
		for GetState() != nil {
		}
		for i := 0; i < n; i++ {
			PutState(make([]float64, dim))
		}
		kept := 0
		for i := 0; i < n; i++ {
			if s := GetState(); cap(s) == dim && len(s) == 0 {
				kept++
			}
		}
		if kept == n {
			return
		}
	}
	t.Fatalf("the pool never handed back all %d buffers it was given", n)
}

// TestBufPoolKeepsIdleBuffers: rounds whose reads do not overlap draw one
// buffer at a time, and the pool must still hold the second across
// collections, so that the next round whose reads overlap finds it instead of
// growing a fresh one. Each get hands out the best fit.
func TestBufPoolKeepsIdleBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// One P: a sync.Pool's per-P slots are not shared between Ps.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := bufPool[*[]byte]{size: byteCap, fresh: func() *[]byte { return new([]byte) }}
	small, large := make([]byte, 0, 100), make([]byte, 0, 200)
	p.put(&small)
	p.put(&large)
	for round := range 4 {
		runtime.GC()
		bp := p.get(150)
		if cap(*bp) != 200 {
			t.Fatalf("round %d: get(150) handed out capacity %d, want 200", round, cap(*bp))
		}
		p.put(bp)
	}
	a, b := p.get(50), p.get(50)
	if cap(*a) != 100 || cap(*b) != 200 {
		t.Fatalf("overlapping gets handed out capacities %d and %d, want 100 and 200", cap(*a), cap(*b))
	}
	if c := p.get(50); cap(*c) != 0 {
		t.Fatalf("a third get found capacity %d in a pool of two", cap(*c))
	}
}
