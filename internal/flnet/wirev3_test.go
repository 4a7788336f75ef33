package flnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
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

// TestQuantizedSectionMatchesApply holds the fused section decoder to
// fl.DeltaPayload.Apply bit for bit: int8 and int16, dense and sparse,
// constant and spread ranges, indices at both ends of the state and gaps of
// one, two and three varint bytes, over a base with NaN, ±Inf and −0 in it.
func TestQuantizedSectionMatchesApply(t *testing.T) {
	const dim = 70000
	rng := rand.New(rand.NewSource(47))
	base := testState(3, dim)
	copy(base, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)})
	codec := NewCodec(CapBinary|CapQuantInt16|CapTopK, 0, 0, ringBase(map[int][]float64{3: base}))
	spread := [][2]float64{{-0.75, 1.5e-3}, {0.25, 0.25}, {-3e-9, 7e5}}
	for _, kind := range []fl.QuantKind{fl.QuantInt8, fl.QuantInt16} {
		for _, indices := range [][]uint32{nil, {0}, {dim - 1}, {0, 1, 2, 140, 20000, dim - 1}, randomIndices(rng, dim, dim/9)} {
			for _, r := range spread {
				p := &fl.DeltaPayload{Kind: kind, Dim: dim, BaseRound: 3, Lo: r[0], Hi: r[1], Indices: indices, Q: make([]uint16, dim)}
				if indices != nil {
					p.Q = p.Q[:len(indices)]
				}
				top := 255
				if kind == fl.QuantInt16 {
					top = math.MaxUint16
				}
				for j := range p.Q {
					p.Q[j] = uint16(rng.Intn(top + 1))
				}
				p.Q[0] = uint16(top)
				want, err := p.Apply(base, nil)
				if err != nil {
					t.Fatal(err)
				}
				var msg Message
				if err := decodeQuantSection(&msg, encodeQuantSection(nil, p), 3, codec); err != nil {
					t.Fatalf("%v, %d indices, range %v: %v", kind, len(indices), r, err)
				}
				for i := range want {
					if math.Float64bits(msg.State[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v, %d indices, range %v: state[%d] = %v, Apply wrote %v", kind, len(indices), r, i, msg.State[i], want[i])
					}
				}
			}
		}
	}
}

// bytesPerRun returns the bytes the heap handed out per call of f, averaged
// over runs calls after a first one that warms the pools.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// randomIndices draws n distinct ascending indices below dim.
func randomIndices(rng *rand.Rand, dim, n int) []uint32 {
	ix := make([]uint32, 0, n)
	for i, left := 0, n; i < dim && left > 0; i++ {
		if rng.Intn(dim-i) < left {
			ix = append(ix, uint32(i))
			left--
		}
	}
	return ix
}

// TestQuantizedDecodeSteadyStateAllocs is the allocation guard on the
// quantized wire's decode: parsed straight into a state with room for it, a
// quantized section (dense broadcast or top-k upload) allocates nothing. A
// whole frame adds what decoding any frame does and compress/flate's link
// tables for a dynamic Huffman block's long codes, a few kilobytes, never a
// level or index per coordinate.
func TestQuantizedDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const dim = 1 << 16
	base, states := oracleStates(dim)
	codec := NewCodec(CapBinary|CapFlate|CapQuantInt8|CapTopK|CapDelta, 7, 0.1, ringBase(map[int][]float64{3: base}))
	for _, topK := range []float64{0, 0.1} {
		p, err := fl.EncodeDelta(fl.QuantInt8, 7, 1, 3, 3, base, states["trained"], topK)
		if err != nil {
			t.Fatal(err)
		}
		sec := encodeQuantSection(nil, p)
		msg := Message{State: make([]float64, 0, dim)}
		if n := testing.AllocsPerRun(20, func() {
			if err := decodeQuantSection(&msg, sec, 3, codec); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("top-k %g: decoding a quantized section allocates %.0f times, want 0", topK, n)
		}
		frame := binaryFrame(t, &Message{Kind: KindUpdate, ClientID: 1, Round: 3, State: states["trained"]}, codec)
		if topK == 0 {
			frame = binaryFrame(t, &Message{Kind: KindGlobal, Round: 4, State: states["trained"], Canon: p}, codec)
		}
		if flags, _, _, _ := stateSection(frame); flags != flagState|flagQuant|flagDelta|flagFlate {
			t.Fatalf("flags %#x: not a deflated quantized frame", flags)
		}
		r := bytes.NewReader(frame)
		if n := bytesPerRun(20, func() {
			r.Reset(frame)
			if err := ReadMessageWith(r, &msg, codec); err != nil {
				t.Fatal(err)
			}
		}); n > 16<<10 {
			t.Errorf("top-k %g: decoding a quantized frame allocates %d bytes, want at most compress/flate's tables (16 KiB)", topK, n)
		}
	}
}

// TestQuantizedConstantDeltaKeepsLZ77 pins the section that stays with
// BestSpeed: a constant delta has every level 0, which Huffman-only coding
// would store in a bit each (60 kB at FCNN6's 485,572 values) and LZ77's
// matches store in a few hundred bytes.
func TestQuantizedConstantDeltaKeepsLZ77(t *testing.T) {
	const dim = 485572
	prev, next := make([]float64, dim), make([]float64, dim)
	for i := range next {
		next[i] = 0.25
	}
	canon, err := fl.EncodeDelta(fl.QuantInt8, 1, -1, 4, 3, prev, next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if canon.Hi != canon.Lo {
		t.Fatalf("range [%g, %g]: not a constant delta", canon.Lo, canon.Hi)
	}
	codec := NewCodec(CapBinary|CapFlate|CapQuantInt8|CapDelta, 1, 0, ringBase(map[int][]float64{3: prev}))
	frame := binaryFrame(t, &Message{Kind: KindGlobal, Round: 4, State: next, Canon: canon}, codec)
	if flags, _, rawLen, stored := stateSection(frame); flags != flagState|flagQuant|flagDelta|flagFlate || len(stored) >= 2<<10 {
		t.Fatalf("a constant %d-value delta stored %d of its %d bytes (flags %#x), want under 2 KiB", dim, len(stored), rawLen, flags)
	}
	var got Message
	if err := ReadMessageWith(bytes.NewReader(frame), &got, codec); err != nil {
		t.Fatal(err)
	}
	assertMessageEqual(t, &got, &Message{Kind: KindGlobal, Round: 4, State: next})
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

	// A sparse section written by hand and stored raw: indices 10 and 200,
	// as gaps 10 and 189 (two varint bytes), then their int8 levels.
	const gapDim, quantFlags = 256, flagState | flagQuant | flagDelta
	gapped := NewCodec(CapBinary|CapQuantInt8|CapTopK, 0, 0, ringBase(map[int][]float64{3: make([]float64, gapDim)}))
	quantFrame := func(sparse byte, dim, count int, body ...byte) []byte {
		sec := []byte{byte(fl.QuantInt8), sparse}
		sec = binary.LittleEndian.AppendUint32(sec, uint32(dim))
		sec = binary.LittleEndian.AppendUint32(sec, uint32(count))
		sec = binary.LittleEndian.AppendUint64(sec, math.Float64bits(-1))
		sec = binary.LittleEndian.AppendUint64(sec, math.Float64bits(1))
		sec = append(sec, body...)
		return handFrame(quantFlags, 3, len(sec), sec)
	}
	twoGaps := []byte{10, 0xBD, 0x01, 0, 255}
	var sparseMsg Message
	if err := ReadMessageWith(bytes.NewReader(quantFrame(1, gapDim, 2, twoGaps...)), &sparseMsg, gapped); err != nil {
		t.Fatalf("the well-formed sparse frame the gap rows break: %v", err)
	}
	if got := sparseMsg.State; got[10] != -1 || got[200] != 1 || got[11] != 0 {
		t.Fatalf("the well-formed sparse frame decoded to %v at 10, %v at 200", got[10], got[200])
	}
	allOnes := append(bytes.Repeat([]byte{0xFF}, 9), 0x01) // 2^64 − 1 in ten bytes
	gapCases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"gap varint past ten bytes", quantFrame(1, gapDim, 2, append(bytes.Repeat([]byte{0x80}, 10), 0, 0, 0)...), "index 0 of 2: gap varint runs past 64 bits"},
		{"gap varint past 64 bits", quantFrame(1, gapDim, 2, append(allOnes[:9:9], 0x02, 0, 0)...), "index 0 of 2: gap varint runs past 64 bits"},
		{"gaps run past the dimension", quantFrame(1, gapDim, 2, 10, 0xF5, 0x01, 0, 255), "index 1 of 2: gap 245 leads past dimension 256"},
		{"index at the dimension", quantFrame(1, gapDim, 1, 0x80, 0x02, 0), "index 0 of 1: gap 256 leads past"},
		{"gap bytes short of the count", quantFrame(1, gapDim, 3, twoGaps[:3]...), "index 2 of 3: gap cut after 0 bytes"},
		{"gap cut inside its varint", quantFrame(1, gapDim, 2, twoGaps[:2]...), "index 1 of 2: gap cut after 1 bytes"},
		{"index repeats", quantFrame(1, gapDim, 2, append(append([]byte{10}, allOnes...), 0, 255)...), "index 1 of 2: gap 18446744073709551615 leads past"},
		{"byte after the levels", quantFrame(1, gapDim, 2, append(twoGaps, 7)...), "3 level bytes after index 1 of 2, want 2"},
		{"levels short", quantFrame(1, gapDim, 2, twoGaps[:4]...), "1 level bytes after index 1 of 2, want 2"},
		{"sparse count past the bytes", quantFrame(1, 1<<26, 1<<24, twoGaps...), "index 3 of 16777216: gap cut"},
		{"dense count past the bytes", quantFrame(0, 1<<24, 1<<24, 0, 255), "2 level bytes after index 16777215 of 16777216"},
		{"sparse count past the dimension", quantFrame(1, 2, 3, 0, 0, 0, 1, 2, 3), "3 levels for dimension 2"},
		{"no index", quantFrame(1, gapDim, 0), "0 levels for dimension 256"},
	}
	for _, tc := range gapCases {
		t.Run(tc.name, func(t *testing.T) {
			var msg Message
			err := ReadMessageWith(bytes.NewReader(tc.raw), &msg, gapped)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one that mentions %q", err, tc.wantErr)
			}
			if cap(msg.State) != 0 {
				t.Fatalf("a refused section sized the state to %d", cap(msg.State))
			}
			// What a refusal costs is bounded by the bytes that arrived,
			// whatever the section claims: never a count- or
			// dimension-sized buffer.
			if n := bytesPerRun(8, func() { ReadMessageWith(bytes.NewReader(tc.raw), &msg, gapped) }); n > uint64(4*len(tc.raw))+64<<10 {
				t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(tc.raw), n)
			}
		})
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
	readBufs.put(bp)
	if got := readBufs.get(len(big)); cap(*got) > 0 && &(*got)[:1][0] == &big[0] {
		t.Fatal("readBufs kept a buffer beyond maxPooledBytes")
	}

	var wb bytes.Buffer
	wb.Grow(maxPooledBytes + 1)
	marker := wb.Bytes()[:1]
	writeBufs.put(&wb)
	if got := writeBufs.get(wb.Cap()); got.Cap() > 0 && &got.Bytes()[:1][0] == &marker[0] {
		t.Fatal("writeBufs kept a buffer beyond maxPooledBytes")
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
	farApart := append([]float64(nil), anchor...)
	farApart[3] += 40
	farApart[200] -= 40
	for _, seed := range []struct {
		caps uint32
		msg  *Message
		topK float64
	}{
		{CapBinary | CapQuantInt8 | CapTopK | CapFlate, &Message{Kind: KindUpdate, ClientID: 1, Round: 2, State: moved, NumSamples: 4}, 0.5},
		{CapBinary | CapQuantInt16, &Message{Kind: KindUpdate, ClientID: 2, Round: 2, State: moved, NumSamples: 4}, 0.5},
		{CapBinary | CapQuantInt8 | CapDelta, &Message{Kind: KindGlobal, Round: 2, State: moved, Canon: canon}, 0.5},
		// Two indices, 3 and 200: the second gap takes two varint bytes.
		{CapBinary | CapQuantInt8 | CapTopK, &Message{Kind: KindUpdate, ClientID: 3, Round: 2, State: farApart, NumSamples: 4}, 2.0 / 256},
	} {
		var buf bytes.Buffer
		if err := WriteMessageWith(&buf, seed.msg, NewCodec(seed.caps, 3, seed.topK, base)); err != nil {
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
