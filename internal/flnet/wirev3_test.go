package flnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/fl"
)

// testState builds a deterministic dim-length state vector.
func testState(seed int64, dim int) []float64 {
	s := make([]float64, dim)
	for i := range s {
		z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
		z ^= z >> 29
		s[i] = float64(z%2048)/1024 - 1
	}
	return s
}

// ringBase adapts a round→state map to a codec base function.
func ringBase(m map[int][]float64) func(int) []float64 {
	return func(round int) []float64 { return m[round] }
}

// TestBinaryRoundTrip drives every message kind through every codec
// configuration the negotiation can produce: plain binary frames, flate
// compression, raw delta broadcasts, quantized uploads (dense int8, sparse
// top-k int16), and quantized delta broadcasts with a canonical payload.
// Lossless paths must round-trip exactly; quantized paths must reconstruct
// the exact state fl.EncodeDelta+Apply defines (the decoder runs the same
// deterministic pipeline, so equality is bitwise, not approximate).
func TestBinaryRoundTrip(t *testing.T) {
	const dim = 2048 // above planeMinDim, so flate sessions write planes
	const seed = 42
	prev := testState(7, dim)
	cur := testState(8, dim)
	bases := map[int][]float64{3: prev, 4: cur}

	lossless := []struct {
		name string
		caps uint32
		msg  Message
	}{
		{"global/plain", CapBinary, Message{Kind: KindGlobal, Round: 4, State: testState(9, dim), Cohort: []int{0, 2, 5}}},
		{"global/flate", CapBinary | CapFlate, Message{Kind: KindGlobal, Round: 4, State: make([]float64, dim)}},
		{"update/plain", CapBinary, Message{Kind: KindUpdate, ClientID: 3, Round: 4, State: testState(10, dim), NumSamples: 128}},
		{"done", CapBinary, Message{Kind: KindDone, State: testState(11, 8)}},
		{"error", CapBinary, Message{Kind: KindError, Err: "flnet: you are quarantined"}},
		{"drain", CapBinary, Message{Kind: KindDrain, RetryAfterMs: 750}},
		{"hello", CapBinary, Message{Kind: KindHello, ClientID: 6, Version: ProtocolVersion, LastRound: -1}},
		{"global/delta-raw", CapBinary | CapDelta, Message{Kind: KindGlobal, Round: 4, State: cur}},
		{"global/delta-raw-flate", CapBinary | CapDelta | CapFlate, Message{Kind: KindGlobal, Round: 4, State: cur}},
		{"update/delta-flate", CapBinary | CapDelta | CapFlate, Message{Kind: KindUpdate, ClientID: 3, Round: 3, State: cur, NumSamples: 128}},
		{"done/flate", CapBinary | CapDelta | CapFlate, Message{Kind: KindDone, Round: 4, State: cur}},
	}
	for _, tc := range lossless {
		t.Run(tc.name, func(t *testing.T) {
			enc := NewCodec(tc.caps, seed, 0, ringBase(map[int][]float64{3: prev}))
			dec := NewCodec(tc.caps, seed, 0, ringBase(map[int][]float64{3: prev}))
			var buf bytes.Buffer
			if err := WriteMessageWith(&buf, &tc.msg, enc); err != nil {
				t.Fatal(err)
			}
			var got Message
			if err := ReadMessageWith(&buf, &got, dec); err != nil {
				t.Fatal(err)
			}
			assertMessageEqual(t, &got, &tc.msg)
			if buf.Len() != 0 {
				t.Fatalf("decoder left %d bytes on the stream", buf.Len())
			}
		})
	}

	quantCases := []struct {
		name string
		caps uint32
		topK float64
	}{
		{"update/int8", CapBinary | CapQuantInt8, 0},
		{"update/int8-flate", CapBinary | CapQuantInt8 | CapFlate, 0},
		{"update/int16-topk", CapBinary | CapQuantInt16 | CapTopK, 0.25},
	}
	for _, tc := range quantCases {
		t.Run(tc.name, func(t *testing.T) {
			enc := NewCodec(tc.caps, seed, tc.topK, ringBase(bases))
			dec := NewCodec(tc.caps, seed, tc.topK, ringBase(bases))
			msg := Message{Kind: KindUpdate, ClientID: 5, Round: 4, State: testState(13, dim), NumSamples: 64}
			var buf bytes.Buffer
			if err := WriteMessageWith(&buf, &msg, enc); err != nil {
				t.Fatal(err)
			}
			// The decoder must land on exactly what the deterministic
			// encode+apply pipeline defines, not merely "close".
			p, err := fl.EncodeDelta(enc.QuantKind(), seed, msg.ClientID, msg.Round, msg.Round, cur, msg.State, enc.topK)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Apply(cur, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got Message
			if err := ReadMessageWith(&buf, &got, dec); err != nil {
				t.Fatal(err)
			}
			if len(got.State) != dim {
				t.Fatalf("decoded state has %d values, want %d", len(got.State), dim)
			}
			for i := range want {
				if got.State[i] != want[i] {
					t.Fatalf("state[%d] = %v, want %v (quantized reconstruction must be bit-exact)", i, got.State[i], want[i])
				}
			}
		})
	}

	t.Run("global/quant-delta-canonical", func(t *testing.T) {
		caps := uint32(CapBinary | CapQuantInt8 | CapDelta)
		canon, err := fl.EncodeDelta(fl.QuantInt8, seed, -1, 4, 3, prev, cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := canon.Apply(prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewCodec(caps, seed, 0, ringBase(bases))
		dec := NewCodec(caps, seed, 0, ringBase(bases))
		msg := Message{Kind: KindGlobal, Round: 4, State: canonical, Canon: canon}
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, &msg, enc); err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := ReadMessageWith(&buf, &got, dec); err != nil {
			t.Fatal(err)
		}
		for i := range canonical {
			if got.State[i] != canonical[i] {
				t.Fatalf("state[%d] = %v, want canonical %v", i, got.State[i], canonical[i])
			}
		}
	})

	t.Run("update/quant-fallback-without-anchor", func(t *testing.T) {
		// A quant-capable session whose base lookup misses (e.g. first
		// exchange after a rejoin) must fall back to a raw lossless upload.
		enc := NewCodec(CapBinary|CapQuantInt8, seed, 0, nil)
		dec := NewCodec(CapBinary|CapQuantInt8, seed, 0, nil)
		msg := Message{Kind: KindUpdate, ClientID: 1, Round: 9, State: testState(21, dim), NumSamples: 8}
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, &msg, enc); err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := ReadMessageWith(&buf, &got, dec); err != nil {
			t.Fatal(err)
		}
		assertMessageEqual(t, &got, &msg)
	})

	t.Run("lossless-delta-anchors", func(t *testing.T) {
		// A lossless delta is the XOR against the previous round's broadcast
		// for a Global and against the round's own broadcast for an Update;
		// it needs both CapDelta and CapFlate, and a shared anchor.
		for _, tc := range []struct {
			name       string
			caps       uint32
			kind       Kind
			wantFlags  byte
			wantAnchor int
		}{
			{"global", CapBinary | CapFlate | CapDelta, KindGlobal, flagState | flagFlate | flagDelta, 3},
			{"update", CapBinary | CapFlate | CapDelta, KindUpdate, flagState | flagFlate | flagDelta, 4},
			{"done", CapBinary | CapFlate | CapDelta, KindDone, flagState | flagFlate, -1},
			{"update without delta", CapBinary | CapFlate, KindUpdate, flagState | flagFlate, -1},
			{"update without flate", CapBinary | CapDelta, KindUpdate, flagState, -1},
			{"global without flate", CapBinary | CapDelta, KindGlobal, flagState, -1},
		} {
			c := NewCodec(tc.caps, seed, 0, ringBase(bases))
			frame := binaryFrame(t, &Message{Kind: tc.kind, Round: 4, State: testState(13, dim)}, c)
			if flags, anchor, _, _ := stateSection(frame); flags != tc.wantFlags || anchor != tc.wantAnchor {
				t.Errorf("%s: flags %#x anchored on %d, want %#x on %d", tc.name, flags, anchor, tc.wantFlags, tc.wantAnchor)
			}
		}
		miss := NewCodec(CapBinary|CapFlate|CapDelta, seed, 0, ringBase(map[int][]float64{4: prev[:dim-1]}))
		frame := binaryFrame(t, &Message{Kind: KindUpdate, Round: 4, State: testState(13, dim)}, miss)
		if flags, anchor, _, _ := stateSection(frame); flags&flagDelta != 0 || anchor != -1 {
			t.Errorf("an upload whose anchor has another dimension went out as a delta (flags %#x, anchor %d)", flags, anchor)
		}
	})

	t.Run("global/delta-without-anchor-fails-decode", func(t *testing.T) {
		enc := NewCodec(CapBinary|CapFlate|CapDelta, seed, 0, ringBase(bases))
		dec := NewCodec(CapBinary|CapFlate|CapDelta, seed, 0, nil) // peer lost its anchor
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, &Message{Kind: KindGlobal, Round: 4, State: cur}, enc); err != nil {
			t.Fatal(err)
		}
		var got Message
		err := ReadMessageWith(&buf, &got, dec)
		if err == nil || !strings.Contains(err.Error(), "no shared anchor") {
			t.Fatalf("decode without anchor = %v, want anchor error", err)
		}
	})
}

// assertMessageEqual compares every wire-carried field exactly.
func assertMessageEqual(t *testing.T, got, want *Message) {
	t.Helper()
	if got.Kind != want.Kind || got.ClientID != want.ClientID ||
		got.Round != want.Round || got.NumSamples != want.NumSamples ||
		got.Version != want.Version || got.LastRound != want.LastRound ||
		got.RetryAfterMs != want.RetryAfterMs || got.Err != want.Err ||
		got.Job != want.Job || got.WireCaps != want.WireCaps ||
		got.QuantSeed != want.QuantSeed || got.TopK != want.TopK {
		t.Fatalf("round trip mismatch: got %+v want %+v", *got, *want)
	}
	if len(got.Cohort) != len(want.Cohort) {
		t.Fatalf("cohort %v, want %v", got.Cohort, want.Cohort)
	}
	for i := range want.Cohort {
		if got.Cohort[i] != want.Cohort[i] {
			t.Fatalf("cohort %v, want %v", got.Cohort, want.Cohort)
		}
	}
	if len(got.State) != len(want.State) {
		t.Fatalf("state length %d, want %d", len(got.State), len(want.State))
	}
	for i := range want.State {
		if got.State[i] != want.State[i] {
			t.Fatalf("state[%d] = %v, want %v", i, got.State[i], want.State[i])
		}
	}
}

// TestFlateActuallyCompresses pins down that a compressible broadcast goes
// out smaller than its raw encoding and still round-trips exactly.
func TestFlateActuallyCompresses(t *testing.T) {
	const dim = 4096
	state := make([]float64, dim) // all zeros: maximally compressible
	plain := NewCodec(CapBinary, 0, 0, nil)
	flated := NewCodec(CapBinary|CapFlate, 0, 0, nil)
	var rawBuf, zBuf bytes.Buffer
	if err := WriteMessageWith(&rawBuf, &Message{Kind: KindGlobal, Round: 1, State: state}, plain); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessageWith(&zBuf, &Message{Kind: KindGlobal, Round: 1, State: state}, flated); err != nil {
		t.Fatal(err)
	}
	if zBuf.Len() >= rawBuf.Len()/10 {
		t.Fatalf("flate frame is %d bytes vs %d raw; expected at least 10x on a zero state", zBuf.Len(), rawBuf.Len())
	}
	var got Message
	if err := ReadMessageWith(&zBuf, &got, flated); err != nil {
		t.Fatal(err)
	}
	if len(got.State) != dim {
		t.Fatalf("decoded %d values, want %d", len(got.State), dim)
	}
	for i, v := range got.State {
		if v != 0 {
			t.Fatalf("state[%d] = %v, want 0", i, v)
		}
	}
}

// binaryFrame encodes one message as a frame and returns the raw bytes.
func binaryFrame(t *testing.T, msg *Message, c *Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessageWith(&buf, msg, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryFrameMalformed table-drives the frame parser's failure paths:
// the framing itself (zero, short, oversized and truncated lengths) and
// every length field inside a data frame and a handshake frame lied about
// in turn. Every lie must produce an error — never a panic, never a giant
// allocation, never trailing-garbage acceptance.
func TestBinaryFrameMalformed(t *testing.T) {
	codec := NewCodec(CapBinary, 0, 0, nil)
	valid := binaryFrame(t, &Message{Kind: KindUpdate, ClientID: 2, Round: 3, State: []float64{1, 2, 3}, NumSamples: 5}, codec)
	hello := binaryFrame(t, &Message{Kind: KindHello, ClientID: 1, Version: ProtocolVersion, LastRound: -1, Job: "tenant", WireCaps: ClientCaps}, nil)

	mutate := func(src []byte, mut func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		mut(b)
		return b
	}
	le32 := binary.LittleEndian.PutUint32
	lenOnly := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

	// A plane section: a 64-value state unchanged since round 3, so its XOR
	// is all zero; the top plane deflated, seven raw. The stream's length
	// prefix sits right behind the mask and the raw planes.
	const planeDim, planeFlags = 64, flagState | flagFlate | flagDelta
	anchored := NewCodec(CapBinary|CapFlate|CapDelta|CapQuantInt8, 0, 0, ringBase(map[int][]float64{3: make([]float64, planeDim)}))
	unchanged := make([]byte, 8*planeDim)
	planes := planeSection(t, 0x80, unchanged)
	const zLenAt = 1 + 7*planeDim
	if err := ReadMessageWith(bytes.NewReader(handFrame(planeFlags, 3, 8*planeDim, planes)), &Message{}, anchored); err != nil {
		t.Fatalf("the well-formed plane frame the rows below break: %v", err)
	}
	// A deflated quantized section: an upload that moved one coordinate.
	moved := make([]float64, planeDim)
	moved[0] = 1
	quant := binaryFrame(t, &Message{Kind: KindUpdate, Round: 3, State: moved}, anchored)
	const rawLenAt = 4 + fixedHeaderLen + 4 + 4
	if quant[4+2] != flagState|flagQuant|flagDelta|flagFlate {
		t.Fatalf("quantized upload went out with flags %#x, want a deflated section", quant[4+2])
	}

	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"empty", nil, "read header"},
		{"truncated header", valid[:3], "read header"},
		{"zero length", lenOnly(0), "length 0 out of range"},
		{"short length", mutate(valid, func(b []byte) { le32(b, minFrameLen-1) }), "out of range"},
		{"over max length", lenOnly(maxFrameBytes + 1), "out of range"},
		{"max uint32 length", lenOnly(^uint32(0)), "out of range"},
		{"huge length truncated stream", mutate(valid, func(b []byte) { le32(b, maxFrameBytes) }), "read payload"},
		{"header only", valid[:4], "read payload"},
		{"truncated payload", valid[:len(valid)-2], "read payload"},
		{"bad magic", mutate(valid, func(b []byte) { b[4] = 0x99 }), "bad frame magic"},
		{"big-endian length", mutate(valid, func(b []byte) { binary.BigEndian.PutUint32(b, uint32(len(b)-4)) }), "out of range"},
		{"unknown kind", mutate(valid, func(b []byte) { b[5] = 0xEE }), "unknown frame kind"},
		{"error text overruns", mutate(valid, func(b []byte) { le32(b[4+fixedHeaderLen:], 1<<20) }), "truncated"},
		{"cohort count overruns", mutate(valid, func(b []byte) { le32(b[4+fixedHeaderLen+4:], 1<<24) }), "truncated"},
		{"stored length overruns", mutate(valid, func(b []byte) { le32(b[len(b)-3*8-4:], 25) }), "truncated"},
		{"stored length short", mutate(valid, func(b []byte) { le32(b[len(b)-3*8-4:], 7) }), "trailing"},
		{"trailing byte", mutate(append(valid[:len(valid):len(valid)], 0), func(b []byte) { le32(b, uint32(len(b)-4)) }), "trailing"},
		{"hello flags set", mutate(hello, func(b []byte) { b[6] = flagState }), "flags"},
		{"hello job overruns", mutate(hello, func(b []byte) { le32(b[4+handshakeLen-4:], 1<<16) }), "truncated"},
		{"hello job short", mutate(hello, func(b []byte) { le32(b[4+handshakeLen-4:], 2) }), "trailing"},
		{"hello cut before job", mutate(hello[:4+handshakeLen-4], func(b []byte) { le32(b, uint32(len(b)-4)) }), "truncated"},

		{"undefined flag bit", mutate(valid, func(b []byte) { b[4+2] |= 0x80 }), "flags"},
		{"reserved byte set", mutate(valid, func(b []byte) { b[4+3] = 0x55 }), "reserved"},
		{"hello reserved byte set", mutate(hello, func(b []byte) { b[4+3] = 1 }), "reserved"},
		{"flate without state", handFrame(flagFlate, -1, 0, nil), "flags"},
		{"delta without state", handFrame(flagDelta, 3, 0, nil), "flags"},
		{"quant without state", handFrame(flagQuant, 3, 0, nil), "flags"},
		{"interleaved delta", handFrame(flagState|flagDelta, 3, 8*planeDim, unchanged), "flags"},
		{"quant without delta", mutate(quant, func(b []byte) { b[4+2] &^= flagDelta }), "flags"},

		{"plane mask names no plane", handFrame(planeFlags, 3, 8*planeDim, planeSection(t, 0, unchanged)), "deflates no plane"},
		{"plane mask names a raw plane", handFrame(planeFlags, 3, 8*planeDim, mutate(planes, func(b []byte) { b[0] = 0xC0 })), "plane section"},
		{"raw planes truncated", handFrame(planeFlags, 3, 8*planeDim, planes[:zLenAt-1]), "truncated"},
		{"plane stream length overruns", handFrame(planeFlags, 3, 8*planeDim, mutate(planes, func(b []byte) { le32(b[zLenAt:], 1<<20) })), "truncated"},
		{"plane stream length short", handFrame(planeFlags, 3, 8*planeDim, mutate(planes, func(b []byte) { le32(b[zLenAt:], 2) })), "trailing"},
		{"plane stream cut", handFrame(planeFlags, 3, 8*planeDim, mutate(planes[:len(planes)-1], func(b []byte) { le32(b[zLenAt:], uint32(len(b)-zLenAt-4)) })), "inflate"},
		{"byte after a plane's stream", handFrame(planeFlags, 3, 8*planeDim, mutate(append(planes[:len(planes):len(planes)], 0), func(b []byte) { le32(b[zLenAt:], uint32(len(b)-zLenAt-4)) })), "after the end of the stream"},
		{"plane inflates past its length", handFrame(planeFlags, 3, 8*planeDim, planeSection(t, 0xFF, make([]byte, 8*(planeDim+1)))), "does not end"},
		{"plane section length not a float64 multiple", handFrame(planeFlags, 3, 8*planeDim-1, planes), "float64 multiple"},
		{"plane anchor missing", handFrame(planeFlags, 2, 8*planeDim, planes), "no shared anchor"},
		{"plane anchor of another dimension", handFrame(planeFlags, 3, 4*planeDim, planeSection(t, 0x80, unchanged[:4*planeDim])), "no shared anchor"},

		{"stored section inflates past its length", mutate(quant, func(b []byte) { le32(b[rawLenAt:], binary.LittleEndian.Uint32(b[rawLenAt:])-1) }), "does not end"},
		{"byte after the stored stream", mutate(append(quant[:len(quant):len(quant)], 0), func(b []byte) {
			le32(b, uint32(len(b)-4))
			le32(b[rawLenAt+4:], binary.LittleEndian.Uint32(b[rawLenAt+4:])+1)
		}), "after the end of the stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var msg Message
			err := ReadMessageWith(bytes.NewReader(tc.raw), &msg, anchored)
			if err == nil {
				t.Fatalf("expected error, decoded %+v", msg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadHello pins what the one Hello parser admits: a Hello within
// maxHelloBytes, and nothing else as a connection's first frame.
func TestReadHello(t *testing.T) {
	want := &Message{Kind: KindHello, ClientID: 4, Version: ProtocolVersion, LastRound: 2, Job: "tenant-b", WireCaps: CapBinary | CapDelta}
	got, err := ReadHello(bytes.NewReader(binaryFrame(t, want, nil)))
	if err != nil {
		t.Fatal(err)
	}
	assertMessageEqual(t, got, want)

	if err := WriteMessage(io.Discard, &Message{Kind: KindHello, Job: strings.Repeat("j", maxHelloBytes)}); err == nil {
		t.Fatal("wrote a hello past maxHelloBytes")
	}
	oversized := binaryFrame(t, &Message{Kind: KindGlobal, State: make([]float64, maxHelloBytes/8)}, nil)
	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"not a hello", binaryFrame(t, &Message{Kind: KindDrain}, nil), "want a hello"},
		{"ack as first frame", binaryFrame(t, &Message{Kind: KindWire, WireCaps: CapBinary}, nil), "want a hello"},
		{"over the hello cap", oversized, "out of range"},
		{"job name over the cap", func() []byte {
			// A length prefix one past the cap, as a hello with a job name
			// that long would carry: refused before a byte of it is read.
			b := binaryFrame(t, want, nil)
			binary.LittleEndian.PutUint32(b, maxHelloBytes+1)
			return b
		}(), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadHello(bytes.NewReader(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadHello = %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestNegotiateCaps pins the capability-intersection rules.
func TestNegotiateCaps(t *testing.T) {
	cases := []struct {
		name              string
		offer, advertised uint32
		want              uint32
	}{
		{"full match", ClientCaps, ClientCaps, ClientCaps},
		{"capability-free client", ClientCaps, 0, 0},
		{"capability-free server", 0, ClientCaps, 0},
		{"flate only", CapBinary | CapFlate, ClientCaps, CapBinary | CapFlate},
		{"no binary no extras", CapFlate | CapDelta, ClientCaps, 0},
		{"topk without quant cleared", CapBinary | CapTopK, ClientCaps, CapBinary},
		{"topk with quant kept", CapBinary | CapQuantInt8 | CapTopK, ClientCaps, CapBinary | CapQuantInt8 | CapTopK},
		{"client subset", CapBinary | CapFlate | CapQuantInt16 | CapDelta, CapBinary | CapDelta, CapBinary | CapDelta},
	}
	for _, tc := range cases {
		if got := negotiateCaps(tc.offer, tc.advertised); got != tc.want {
			t.Errorf("%s: negotiateCaps(%#x, %#x) = %#x, want %#x", tc.name, tc.offer, tc.advertised, got, tc.want)
		}
	}
}

// TestCapsLabel pins the /healthz codec labels.
func TestCapsLabel(t *testing.T) {
	cases := []struct {
		caps uint32
		want string
	}{
		{0, "binary"},
		{CapBinary, "binary"},
		{CapBinary | CapFlate, "binary+flate"},
		{CapBinary | CapQuantInt8 | CapTopK | CapDelta, "binary+int8+topk+delta"},
		{ClientCaps, "binary+flate+int16+topk+delta"},
	}
	for _, tc := range cases {
		if got := CapsLabel(tc.caps); got != tc.want {
			t.Errorf("CapsLabel(%#x) = %q, want %q", tc.caps, got, tc.want)
		}
	}
}

// TestPoolsDropOversizedBuffers is the bounded-pooling guard: a buffer past
// maxPooledBytes must never be re-issued by its pool (one hostile-but-valid
// giant frame must not pin tens of megabytes for the process lifetime).
func TestPoolsDropOversizedBuffers(t *testing.T) {
	big := make([]byte, maxPooledBytes+1)
	bp := &big
	putBuf(&readBufPool, bp)
	if got := readBufPool.Get().(*[]byte); cap(*got) > 0 && &(*got)[:1][0] == &big[0] {
		t.Fatal("readBufPool kept a buffer beyond maxPooledBytes")
	}

	var wb bytes.Buffer
	wb.Grow(maxPooledBytes + 1)
	marker := wb.Bytes()[:1]
	putWriteBuf(&wb)
	if got := writeBufPool.Get().(*bytes.Buffer); got.Cap() > 0 && &got.Bytes()[:1][0] == &marker[0] {
		t.Fatal("putWriteBuf pooled a buffer beyond maxPooledBytes")
	}

	state := make([]float64, maxPooledBytes/8+1)
	PutState(state)
	if got := GetState(); cap(got) > 0 && &got[:1][0] == &state[0] {
		t.Fatal("PutState pooled a state buffer beyond maxPooledBytes")
	}
}

// FuzzFrame throws arbitrary bytes at the binary decoder: it must return a
// message or an error, never panic, and anything it accepts must survive a
// re-encode/re-decode round trip.
func FuzzFrame(f *testing.F) {
	codec := NewCodec(CapBinary, 0, 0, nil)
	seedMsgs := []*Message{
		{Kind: KindGlobal, Round: 2, State: []float64{1, -2, 3.5}, Cohort: []int{0, 1}},
		{Kind: KindUpdate, ClientID: 1, Round: 2, State: []float64{0.25}, NumSamples: 9},
		{Kind: KindError, Err: "nope"},
		{Kind: KindDrain, RetryAfterMs: 10},
		{Kind: KindHello, ClientID: 1, Version: ProtocolVersion, LastRound: -1, Job: "j", WireCaps: ClientCaps},
		{Kind: KindWire, WireCaps: CapBinary | CapFlate, QuantSeed: 7, TopK: 0.5},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, m, codec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	zc := NewCodec(CapBinary|CapFlate, 0, 0, nil)
	var zbuf bytes.Buffer
	if err := WriteMessageWith(&zbuf, &Message{Kind: KindGlobal, Round: 1, State: make([]float64, 256)}, zc); err != nil {
		f.Fatal(err)
	}
	f.Add(zbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{76, 0, 0, 0, frameMagic})
	f.Add(func() []byte {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:4], maxFrameBytes)
		b[4] = frameMagic
		return b[:]
	}())

	// The decoding codec resolves every round to one anchor, so frames that
	// need one are parsed past the lookup; the seeds cover each form of
	// state section against it.
	anchor := testState(5, 256)
	moved := testState(6, 256)
	base := func(int) []float64 { return anchor }
	canon, err := fl.EncodeDelta(fl.QuantInt8, 3, -1, 2, 1, anchor, moved, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		caps uint32
		msg  *Message
	}{
		{CapBinary | CapQuantInt8 | CapTopK | CapFlate, &Message{Kind: KindUpdate, ClientID: 1, Round: 2, State: moved, NumSamples: 4}},
		{CapBinary | CapQuantInt16, &Message{Kind: KindUpdate, ClientID: 2, Round: 2, State: moved, NumSamples: 4}},
		{CapBinary | CapQuantInt8 | CapDelta, &Message{Kind: KindGlobal, Round: 2, State: moved, Canon: canon}},
	} {
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, seed.msg, NewCodec(seed.caps, 3, 0.5, base)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Plane sections, hand-built: the encoder writes none this short.
	f.Add(handFrame(flagState|flagFlate|flagDelta, 1, 8*256, planeSection(f, 0x83, interleavedXOR(moved, anchor))))
	f.Add(handFrame(flagState|flagFlate, -1, 8*256, planeSection(f, 0xFF, interleavedXOR(moved, nil))))

	full := NewCodec(ClientCaps, 3, 0.5, base)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var msg Message
		if err := ReadMessageWith(bytes.NewReader(raw), &msg, full); err != nil {
			return
		}
		if msg.Kind < KindHello || msg.Kind > KindWire {
			t.Fatalf("decoder accepted invalid kind %d", msg.Kind)
		}
		// Re-encode with a plain binary codec (no lossy transforms) and
		// decode again: the wire fields must be stable.
		var out bytes.Buffer
		if err := WriteMessageWith(&out, &msg, codec); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		var again Message
		if err := ReadMessageWith(&out, &again, codec); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Kind != msg.Kind || again.ClientID != msg.ClientID || again.Round != msg.Round ||
			again.NumSamples != msg.NumSamples || again.Err != msg.Err || len(again.State) != len(msg.State) ||
			again.Job != msg.Job || again.WireCaps != msg.WireCaps || again.QuantSeed != msg.QuantSeed {
			t.Fatalf("round trip changed message: %+v vs %+v", again, msg)
		}
		for i := range msg.State {
			if again.State[i] != msg.State[i] && !(math.IsNaN(again.State[i]) && math.IsNaN(msg.State[i])) {
				t.Fatalf("state[%d] changed: %v vs %v", i, again.State[i], msg.State[i])
			}
		}
	})
}

// FuzzHandshake throws arbitrary bytes at the Hello parser every connection
// is admitted through: it must return a Hello or an error, never panic,
// never read past maxHelloBytes of payload, and an accepted Hello must
// re-encode to a frame that parses back to the same fields.
func FuzzHandshake(f *testing.F) {
	for _, m := range []*Message{
		{Kind: KindHello, Version: ProtocolVersion, LastRound: -1},
		{Kind: KindHello, ClientID: 9, Version: ProtocolVersion, LastRound: 3, Job: "tenant-a", WireCaps: ClientCaps},
		{Kind: KindWire, WireCaps: CapBinary, QuantSeed: 1, TopK: 0.1},
		{Kind: KindDrain, RetryAfterMs: 5},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, maxHelloBytes+1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		hello, err := ReadHello(r)
		if consumed := len(raw) - r.Len(); consumed > 4+maxHelloBytes {
			t.Fatalf("hello parser consumed %d bytes", consumed)
		}
		if err != nil {
			return
		}
		if hello.Kind != KindHello {
			t.Fatalf("ReadHello accepted a %v frame", hello.Kind)
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, hello); err != nil {
			t.Fatalf("re-encode of accepted hello failed: %v", err)
		}
		again, err := ReadHello(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.TopK != hello.TopK && !(math.IsNaN(again.TopK) && math.IsNaN(hello.TopK)) {
			t.Fatalf("TopK changed: %v vs %v", again.TopK, hello.TopK)
		}
		again.TopK, hello.TopK = 0, 0
		assertMessageEqual(t, again, hello)
	})
}
