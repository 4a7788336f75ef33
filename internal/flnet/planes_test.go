package flnet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binenc"
	"repro/internal/kerneltest"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// interleavedXOR is the lossless delta encoding the plane section replaced,
// kept as its oracle: the little-endian IEEE bits of state, XORed with
// base's when there is a base, one coordinate after the other.
func interleavedXOR(state, base []float64) []byte {
	sec := make([]byte, 0, 8*len(state))
	for i, v := range state {
		x := math.Float64bits(v)
		if base != nil {
			x ^= math.Float64bits(base[i])
		}
		sec = binenc.AppendU64(sec, x)
	}
	return sec
}

// planeSection hand-builds a plane section from interleaved bytes: the
// planes mask names go through compress/flate directly, the rest stay raw.
func planeSection(t testing.TB, mask byte, interleaved []byte) []byte {
	t.Helper()
	dim := len(interleaved) / 8
	plane := func(p int) []byte {
		b := make([]byte, dim)
		for i := range b {
			b[i] = interleaved[8*i+p]
		}
		return b
	}
	sec := []byte{mask}
	for p := 0; p < 8; p++ {
		if mask&(1<<p) == 0 {
			sec = append(sec, plane(p)...)
		}
	}
	for p := 0; p < 8; p++ {
		if mask&(1<<p) == 0 {
			continue
		}
		var z bytes.Buffer
		zw, err := flate.NewWriter(&z, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(plane(p))
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		sec = binenc.AppendU32(sec, uint32(z.Len()))
		sec = append(sec, z.Bytes()...)
	}
	return sec
}

// handFrame hand-builds a KindGlobal data frame for round 4 around a stored
// state section, so a test controls every flag and length in it.
func handFrame(flags byte, anchorRound, rawLen int, stored []byte) []byte {
	b := appendHeader(nil, &Message{Kind: KindGlobal, Round: 4}, flags, anchorRound)
	b = binenc.AppendString(b, "")
	b = binenc.AppendU32(b, 0)
	b = binenc.AppendU32(b, uint32(rawLen))
	b = binenc.AppendU32(b, uint32(len(stored)))
	b = append(b, stored...)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// stateSection cuts a data frame written by this package (no error text, no
// cohort) into its flags, anchor round, declared length and stored section.
func stateSection(frame []byte) (flags byte, anchorRound, rawLen int, stored []byte) {
	const at = 4 + fixedHeaderLen + 4 + 4
	flags = frame[4+2]
	anchorRound = int(int64(binary.LittleEndian.Uint64(frame[4+52:])))
	rawLen = int(binary.LittleEndian.Uint32(frame[at:]))
	return flags, anchorRound, rawLen, frame[at+8:]
}

// interleave undoes a plane section with compress/flate and nothing of the
// decoder under test.
func interleave(t *testing.T, sec []byte, dim int) []byte {
	t.Helper()
	mask, rest := sec[0], sec[1:]
	var planes [8][]byte
	for p := range planes {
		if mask&(1<<p) == 0 {
			planes[p], rest = rest[:dim], rest[dim:]
		}
	}
	for p := range planes {
		if mask&(1<<p) == 0 {
			continue
		}
		zLen := int(binary.LittleEndian.Uint32(rest))
		plane, err := io.ReadAll(flate.NewReader(bytes.NewReader(rest[4 : 4+zLen])))
		if err != nil || len(plane) != dim {
			t.Fatalf("plane %d inflates to %d bytes (%v), want %d", p, len(plane), err, dim)
		}
		planes[p], rest = plane, rest[4+zLen:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last plane", len(rest))
	}
	out := make([]byte, 8*dim)
	for p, plane := range planes {
		for i, b := range plane {
			out[8*i+p] = b
		}
	}
	return out
}

// oracleStates builds the state/anchor pairs the oracle test runs at one
// dimension. The anchor is a plausible model (small normal weights); the
// states differ from it the ways a federation's do and the ways only a
// hostile or broken peer's would.
func oracleStates(dim int) (base []float64, states map[string][]float64) {
	rng := rand.New(rand.NewSource(int64(dim) + 1))
	base = make([]float64, dim)
	for i := range base {
		base[i] = rng.NormFloat64() * 0.05
	}
	trained := make([]float64, dim)
	noise := make([]float64, dim)
	halfFrozen := append([]float64(nil), base...)
	special := append([]float64(nil), base...)
	edge := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
	}
	for i := range base {
		trained[i] = base[i] * (1 + 0.3*rng.NormFloat64())
		noise[i] = math.Float64frombits(rng.Uint64())
		if i >= dim/2 {
			halfFrozen[i] = math.Float64frombits(rng.Uint64())
		}
		switch i % 3 {
		case 0:
			special[i] = edge[(i/3)%len(edge)]
		case 1:
			special[i] = -base[i] // sign flip
		}
	}
	return base, map[string][]float64{
		"trained":     trained,
		"unchanged":   append([]float64(nil), base...),
		"zero":        make([]float64, dim),
		"noise":       noise,
		"half-frozen": halfFrozen,
		"special":     special,
	}
}

// TestPlaneSectionMatchesInterleavedOracle holds the plane section to the
// encoding it replaced, in both directions and bit for bit: what the encoder
// writes must re-interleave (with compress/flate alone) to the oracle's
// bytes, any plane section built from the oracle's bytes — whatever planes
// its mask deflates — must decode to the state, and a frame under CapFlate
// is never longer than the same frame without it.
func TestPlaneSectionMatchesInterleavedOracle(t *testing.T) {
	dims := []int{0, 1, 7, 8, 9, 63, 64, 65, planeMinDim - 1, planeMinDim, planeMinDim + 1, 4096, 485572}
	if testing.Short() || raceEnabled {
		dims = dims[:len(dims)-1] // one goroutine: the detector only makes the FCNN6 size slow
	}
	plain := NewCodec(CapBinary, 0, 0, nil)
	for _, dim := range dims {
		base, states := oracleStates(dim)
		for name, state := range states {
			for _, anchored := range []bool{false, true} {
				t.Run(fmt.Sprintf("%d/%s/anchor=%v", dim, name, anchored), func(t *testing.T) {
					caps, bases, oracleBase := uint32(CapBinary|CapFlate), map[int][]float64{}, []float64(nil)
					if anchored {
						caps, bases[3], oracleBase = caps|CapDelta, base, base
					}
					codec := NewCodec(caps, 0, 0, ringBase(bases))
					msg := &Message{Kind: KindGlobal, Round: 4, State: state}
					frame := binaryFrame(t, msg, codec)
					if raw := binaryFrame(t, msg, plain); len(frame) > len(raw) {
						t.Errorf("frame is %d bytes under flate, %d without", len(frame), len(raw))
					}

					// Encoder against the oracle.
					flags, anchorRound, rawLen, stored := stateSection(frame)
					if dim == 0 {
						if flags != 0 || rawLen != 0 || len(stored) != 0 {
							t.Fatalf("empty state wrote flags %#x and a %d-byte section", flags, len(stored))
						}
						return
					}
					if rawLen != 8*dim {
						t.Fatalf("rawLen %d, want %d", rawLen, 8*dim)
					}
					switch flags {
					case flagState:
						if !bytes.Equal(stored, interleavedXOR(state, nil)) || anchorRound != -1 {
							t.Fatal("raw section is not the state's interleaved bits")
						}
					case flagState | flagFlate:
						if !bytes.Equal(interleave(t, stored, dim), interleavedXOR(state, nil)) || anchorRound != -1 {
							t.Fatal("plane section does not re-interleave to the state's bits")
						}
					case flagState | flagFlate | flagDelta:
						if !anchored || anchorRound != 3 {
							t.Fatalf("delta section against round %d on a session anchored=%v", anchorRound, anchored)
						}
						if !bytes.Equal(interleave(t, stored, dim), interleavedXOR(state, base)) {
							t.Fatal("plane section does not re-interleave to the oracle's XOR")
						}
					default:
						t.Fatalf("flags %#x", flags)
					}

					// Decoder against the oracle: the encoder's own frame, then
					// sections it would never choose.
					frames := [][]byte{frame}
					oracle, oracleFlags, oracleAnchor := interleavedXOR(state, oracleBase), flagState|flagFlate, -1
					if anchored {
						oracleFlags, oracleAnchor = oracleFlags|flagDelta, 3
					}
					for _, mask := range []byte{0x01, 0x80, 0xA5, 0xFF} {
						frames = append(frames, handFrame(oracleFlags, oracleAnchor, 8*dim, planeSection(t, mask, oracle)))
					}
					for i, f := range frames {
						got := Message{State: GetState()}
						if err := ReadMessageWith(bytes.NewReader(f), &got, codec); err != nil {
							t.Fatalf("frame %d: %v", i, err)
						}
						if len(got.State) != dim {
							t.Fatalf("frame %d decoded %d values, want %d", i, len(got.State), dim)
						}
						if j := kerneltest.FirstDiff(got.State, state); j >= 0 {
							t.Fatalf("frame %d: state[%d] = %x, want %x", i, j, math.Float64bits(got.State[j]), math.Float64bits(state[j]))
						}
						PutState(got.State)
					}
				})
			}
		}
	}
}

// TestPlaneMaskFollowsTheData pins the encoder's policy on the three kinds
// of plane a model produces: a trained model's XOR deflates its sign-and-
// exponent plane alone, a frozen half pulls every plane in, noise none.
func TestPlaneMaskFollowsTheData(t *testing.T) {
	base, states := oracleStates(1 << 16)
	for _, tc := range []struct {
		state string
		base  []float64
		want  byte
	}{
		{"trained", base, 0x80},
		{"trained", nil, 0},
		{"unchanged", base, 0xFF},
		{"half-frozen", base, 0xFF},
		{"noise", base, 0},
		{"zero", nil, 0xFF},
	} {
		if got := planeMask(states[tc.state], tc.base); got != tc.want {
			t.Errorf("%s (anchored=%v): mask %#02x, want %#02x", tc.state, tc.base != nil, got, tc.want)
		}
	}
	if got := planeMask(make([]float64, planeMinDim-1), nil); got != 0 {
		t.Errorf("a state below planeMinDim got mask %#02x", got)
	}
}

// TestPlaneFrameSteadyStateAllocs is the allocation guard on the lossless
// wire: once the pools are warm, encoding a plane frame allocates nothing,
// and decoding one allocates what decoding any frame does (the length
// prefix's four bytes) plus whatever compress/flate does per stream (the
// link tables of a dynamic Huffman block, none on this frame) — against 18
// allocations for the interleaved stream this replaced.
func TestPlaneFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	base, states := oracleStates(1 << 16)
	codec := NewCodec(CapBinary|CapFlate|CapDelta, 0, 0, ringBase(map[int][]float64{3: base}))
	msg := &Message{Kind: KindGlobal, Round: 4, State: states["trained"]}
	frame := binaryFrame(t, msg, codec)
	if flags, _, _, _ := stateSection(frame); flags != flagState|flagFlate|flagDelta {
		t.Fatalf("flags %#x: not a delta plane frame", flags)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := WriteMessageWith(io.Discard, msg, codec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding a plane frame allocates %.0f times, want 0", n)
	}
	got := Message{State: make([]float64, 0, len(msg.State))}
	r := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(frame)
		if err := ReadMessageWith(r, &got, codec); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("decoding a plane frame allocates %.0f times, want 1 (4 allowed; the interleaved section it replaced cost 18)", n)
	}
}

// TestPlaneTransposeBitIdentical holds the plane scatter and gather, on every
// kernel tier the host runs, to a byte-by-byte oracle: at every length up to
// two and a half kernel steps and at FCNN6's size, with no anchor and with
// one as long as the state. The state is built so that after the XOR each
// plane runs through all 256 byte values (at the FCNN6 size), and a few
// coordinates carry NaN payloads, a signalling NaN among them, that a float
// operation would rewrite. The planes are compared packed: byte p of
// coordinate i's output is plane p's byte i.
func TestPlaneTransposeBitIdentical(t *testing.T) {
	nans := []uint64{0x7ff0000000000001, 0xfff8dead0000beef, 0x7ff8000000000001, 0xffffffffffffffff}
	kt := kerneltest.Env{Tiers: tensor.ForEachKernelISA, SetWorkers: parallel.SetWorkers, SetMinWork: parallel.SetMinWork, Pools: []int{1}}
	kt.Run(t, func(emit func(kerneltest.Case)) {
		rng := rand.New(rand.NewSource(61))
		for _, n := range kerneltest.Lengths(80, 485572) {
			for _, anchored := range []bool{false, true} {
				var base []float64
				if anchored {
					base = make([]float64, n)
					for i := range base {
						base[i] = math.Float64frombits(rng.Uint64())
					}
				}
				// want[i]'s byte p is what plane p must hold at i.
				want, state := make([]float64, n), make([]float64, n)
				for i := range want {
					var x uint64
					for p := 0; p < 8; p++ {
						x |= uint64(byte(i+37*p)^byte(rng.Intn(2))) << (8 * p)
					}
					if i%11 == 3 {
						x = rng.Uint64()
					}
					if i%13 == 5 {
						x = nans[i%len(nans)]
					}
					want[i] = math.Float64frombits(x)
					if anchored {
						x ^= math.Float64bits(base[i])
					}
					state[i] = math.Float64frombits(x)
				}
				emit(kerneltest.Case{Name: fmt.Sprintf("n=%d anchored=%v", n, anchored), Dst: [][]float64{make([]float64, n)},
					Ref: func(d [][]float64) [][]float64 { copy(d[0], state); return [][]float64{want, d[0]} },
					Run: func(d [][]float64) ([][]float64, int) {
						var planes [8][]byte
						for p := range planes {
							planes[p] = make([]byte, n)
						}
						scatterPlanes(&planes, state, base)
						packed := make([]float64, n)
						for i := range packed {
							var x uint64
							for p := range planes {
								x |= uint64(planes[p][i]) << (8 * p)
							}
							packed[i] = math.Float64frombits(x)
						}
						gatherPlanes(d[0], &planes, base)
						return [][]float64{packed, d[0]}, -1
					}})
			}
		}
	})
}

// BenchmarkPlaneTranspose times the scatter and the gather of an
// FCNN6-sized state against an anchor on every kernel tier the host runs.
func BenchmarkPlaneTranspose(b *testing.B) {
	base, states := oracleStates(485572)
	state := states["trained"]
	var planes [8][]byte
	for p := range planes {
		planes[p] = make([]byte, len(state))
	}
	dst := make([]float64, len(state))
	tensor.ForEachKernelISA(func(isa string) {
		b.Run("scatter/"+isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scatterPlanes(&planes, state, base)
			}
		})
		b.Run("gather/"+isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gatherPlanes(dst, &planes, base)
			}
		})
	})
}
