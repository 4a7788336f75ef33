package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantVec builds a deterministic test vector with a mix of magnitudes.
func quantVec(seed int64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(3)-1))
	}
	return v
}

// TestEncodeDeltaDeterministic is the bit-reproducibility property the wire
// protocol depends on: the same (kind, seed, stream, round, base, state,
// topK) inputs must produce byte-identical payloads on every call, and any
// change to seed, stream, or round must move at least one level (the
// stochastic rounding is a counter-mode hash, not shared RNG state).
func TestEncodeDeltaDeterministic(t *testing.T) {
	const dim = 1024
	base := quantVec(1, dim)
	state := quantVec(2, dim)
	for _, kind := range []QuantKind{QuantInt8, QuantInt16} {
		for _, topK := range []float64{0, 0.1} {
			a, err := EncodeDelta(kind, 7, 3, 5, 5, base, state, topK)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				b, err := EncodeDelta(kind, 7, 3, 5, 5, base, state, topK)
				if err != nil {
					t.Fatal(err)
				}
				assertPayloadEqual(t, a, b)
			}
			variants := []*DeltaPayload{}
			for _, args := range [][3]int64{{8, 3, 5}, {7, 4, 5}, {7, 3, 6}} {
				v, err := EncodeDelta(kind, args[0], int(args[1]), int(args[2]), 5, base, state, topK)
				if err != nil {
					t.Fatal(err)
				}
				variants = append(variants, v)
			}
			for vi, v := range variants {
				if samePayloadLevels(a, v) {
					t.Errorf("kind=%v topK=%v: variant %d (changed seed/stream/round) produced identical levels", kind, topK, vi)
				}
			}
		}
	}
}

// assertPayloadEqual compares two payloads the way the wire would: the
// range by bit pattern (a −0 bound is not +0) and dense distinct from
// sparse.
func assertPayloadEqual(t *testing.T, a, b *DeltaPayload) {
	t.Helper()
	if a.Kind != b.Kind || a.Dim != b.Dim || a.BaseRound != b.BaseRound ||
		math.Float64bits(a.Lo) != math.Float64bits(b.Lo) || math.Float64bits(a.Hi) != math.Float64bits(b.Hi) ||
		(a.Indices == nil) != (b.Indices == nil) {
		t.Fatalf("payload headers differ: %+v vs %+v", a, b)
	}
	if len(a.Indices) != len(b.Indices) || len(a.Q) != len(b.Q) {
		t.Fatalf("payload sizes differ: %d/%d indices, %d/%d levels", len(a.Indices), len(b.Indices), len(a.Q), len(b.Q))
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("index %d differs: %d vs %d", i, a.Indices[i], b.Indices[i])
		}
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			t.Fatalf("level %d differs: %d vs %d", i, a.Q[i], b.Q[i])
		}
	}
}

func samePayloadLevels(a, b *DeltaPayload) bool {
	if len(a.Q) != len(b.Q) {
		return false
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			return false
		}
	}
	return true
}

// TestEncodeDeltaAccuracy bounds the reconstruction error by one
// quantization step per coordinate and verifies untouched coordinates of a
// sparse payload pass through exactly.
func TestEncodeDeltaAccuracy(t *testing.T) {
	const dim = 2048
	base := quantVec(3, dim)
	state := quantVec(4, dim)
	for _, tc := range []struct {
		kind QuantKind
		topK float64
	}{
		{QuantInt8, 0}, {QuantInt16, 0}, {QuantInt8, 0.25}, {QuantInt16, 0.05},
	} {
		p, err := EncodeDelta(tc.kind, 11, 0, 1, 1, base, state, tc.topK)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Apply(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := (p.Hi - p.Lo) / float64(tc.kind.levels())
		carried := make(map[int]bool, len(p.Indices))
		if tc.topK > 0 {
			k := int(math.Ceil(tc.topK * dim))
			if p.Indices == nil || len(p.Indices) != k {
				t.Fatalf("kind=%v topK=%v: %d indices, want %d", tc.kind, tc.topK, len(p.Indices), k)
			}
			for _, ix := range p.Indices {
				carried[int(ix)] = true
			}
		} else {
			if p.Indices != nil {
				t.Fatalf("kind=%v topK=%v: dense encode produced %d indices", tc.kind, tc.topK, len(p.Indices))
			}
			for i := 0; i < dim; i++ {
				carried[i] = true
			}
		}
		for i := range got {
			if !carried[i] {
				if got[i] != base[i] {
					t.Fatalf("kind=%v topK=%v: uncarried coordinate %d changed: %v vs %v", tc.kind, tc.topK, i, got[i], base[i])
				}
				continue
			}
			if diff := math.Abs(got[i] - state[i]); diff > step+1e-12 {
				t.Fatalf("kind=%v topK=%v: coordinate %d off by %g, step is %g", tc.kind, tc.topK, i, diff, step)
			}
		}
	}
}

// TestEncodeDeltaTopKSelection pins the deterministic top-k rule: largest
// |delta| first, index ties ascending, indices re-sorted ascending in the
// payload.
func TestEncodeDeltaTopKSelection(t *testing.T) {
	base := make([]float64, 8)
	state := []float64{0.1, -5, 0.2, 5, -0.3, 0.1, 4, -0.1}
	p, err := EncodeDelta(QuantInt8, 1, 0, 0, 0, base, state, 0.375) // k = 3
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 3, 6} // |−5|, |5|, |4| re-sorted ascending
	if len(p.Indices) != len(want) {
		t.Fatalf("indices %v, want %v", p.Indices, want)
	}
	for i := range want {
		if p.Indices[i] != want[i] {
			t.Fatalf("indices %v, want %v", p.Indices, want)
		}
	}
}

// TestEncodeDeltaRejectsNonFinite ensures NaN/Inf deltas are refused rather
// than serialized — anywhere in the delta, including at a coordinate a
// top-k selection would not carry (NaN orders unpredictably under a
// comparison sort and could be silently dropped from the payload).
func TestEncodeDeltaRejectsNonFinite(t *testing.T) {
	const dim = 40
	for _, topK := range []float64{0, 0.1, 0.5} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			// Where a NaN landed under the old comparison sort depended on
			// its position: at coordinate 3 (displacing the largest delta)
			// it was selected and refused, at 29 it was passed over and the
			// encode succeeded without it.
			for _, at := range []int{3, 29} {
				base := make([]float64, dim)
				state := make([]float64, dim)
				for i := range state {
					state[i] = float64(dim - (i+37)%dim)
				}
				base[at], state[at] = 1, bad
				if _, err := EncodeDelta(QuantInt8, 1, 0, 0, 0, base, state, topK); err == nil {
					t.Errorf("topK=%v: EncodeDelta accepted %v at coordinate %d", topK, bad, at)
				}
			}
		}
	}
	// A finite pair whose difference overflows is just as non-finite.
	base := []float64{0, -math.MaxFloat64, 0, 0}
	state := []float64{1, math.MaxFloat64, 2, 3}
	if _, err := EncodeDelta(QuantInt8, 1, 0, 0, 0, base, state, 0.5); err == nil {
		t.Error("EncodeDelta accepted a delta that overflows to +Inf")
	}
}

// oracleEncodeDelta is EncodeDelta as it stood before the linear-time
// selection, kept verbatim as the reference the encoder must reproduce bit
// for bit: a comparison sort of an index permutation by descending |delta|
// with index ties ascending, the first k re-sorted by index, then the range
// scan and stochastic rounding through one value(j) accessor. (Its
// non-finite check only ever saw the selected coordinates; callers feed it
// finite deltas.)
func oracleEncodeDelta(kind QuantKind, seed int64, stream, round, baseRound int, base, state []float64, topK float64) *DeltaPayload {
	dim := len(state)
	p := &DeltaPayload{Kind: kind, Dim: dim, BaseRound: baseRound}

	delta := make([]float64, dim)
	for i := range delta {
		delta[i] = state[i] - base[i]
	}
	var idx []uint32
	if topK > 0 && topK < 1 {
		k := int(math.Ceil(topK * float64(dim)))
		if k < 1 {
			k = 1
		}
		order := make([]uint32, dim)
		for i := range order {
			order[i] = uint32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := math.Abs(delta[order[a]]), math.Abs(delta[order[b]])
			if da != db {
				return da > db
			}
			return order[a] < order[b]
		})
		idx = order[:k]
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		p.Indices = idx
	}

	value := func(j int) float64 {
		if idx != nil {
			return delta[idx[j]]
		}
		return delta[j]
	}
	count := dim
	if idx != nil {
		count = len(idx)
	}
	lo, hi := value(0), value(0)
	for j := 0; j < count; j++ {
		v := value(j)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	p.Lo, p.Hi = lo, hi
	p.Q = make([]uint16, count)
	if hi == lo {
		return p
	}
	levels := float64(kind.levels())
	scale := levels / (hi - lo)
	h := quantStream(seed, stream, round)
	for j := 0; j < count; j++ {
		coord := j
		if idx != nil {
			coord = int(idx[j])
		}
		x := (value(j) - lo) * scale
		q := math.Floor(x)
		frac := x - q
		u := float64(Mix64(h+uint64(coord))>>11) / float64(1<<53)
		if u < frac {
			q++
		}
		if q < 0 {
			q = 0
		}
		if q > levels {
			q = levels
		}
		p.Q[j] = uint16(q)
	}
	return p
}

// oracleDeltas names the delta shapes that stress a selection rule: ties
// at, above and below the threshold, nothing to choose between, both zeros,
// magnitudes that differ only in the lowest radix digits, and a range one
// coordinate dominates.
var oracleDeltas = []struct {
	name string
	gen  func(rng *rand.Rand, dim int) []float64
}{
	{"normal", func(rng *rand.Rand, dim int) []float64 {
		return quantVec(rng.Int63(), dim)
	}},
	{"heavy ties", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = float64(rng.Intn(7)-3) / 4
		}
		return d
	}},
	{"all equal", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = -2.5
		}
		return d
	}},
	{"equal magnitudes, mixed signs", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = 1.5 - 3*float64(rng.Intn(2))
		}
		return d
	}},
	{"all zero", func(rng *rand.Rand, dim int) []float64 {
		return make([]float64, dim)
	}},
	{"signed zeros", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			switch rng.Intn(4) {
			case 0:
				d[i] = math.Copysign(0, -1)
			case 1:
				d[i] = rng.NormFloat64()
			}
		}
		return d
	}},
	{"denormals", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = math.Float64frombits(uint64(rng.Intn(64))) * float64(1-2*rng.Intn(2))
		}
		return d
	}},
	{"low-digit neighbours", func(rng *rand.Rand, dim int) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(1<<20)))
		}
		return d
	}},
	{"one huge outlier", func(rng *rand.Rand, dim int) []float64 {
		d := quantVec(rng.Int63(), dim)
		d[rng.Intn(dim)] = -1e300
		return d
	}},
}

// TestEncodeDeltaMatchesSortOracle is the replacement's safety net: over
// seeded deltas of every awkward shape, every k from 1 to dim−1 worth
// asking for, and both level widths, the linear-time encoder must produce
// the payload the old comparison sort did — same indices, same range bits,
// same levels.
func TestEncodeDeltaMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range oracleDeltas {
		for _, dim := range []int{2, 7, 64, 1000} {
			state := shape.gen(rng, dim)
			base := make([]float64, dim) // state − 0 is exact: the delta is the shape
			// topK values that land on k = 1, 2, dim/10, dim/2 and dim−1.
			for _, k := range []int{1, 2, (dim + 9) / 10, dim / 2, dim - 1} {
				if k < 1 || k >= dim {
					continue
				}
				topK := (float64(k) - 0.5) / float64(dim)
				if got := int(math.Ceil(topK * float64(dim))); got != k {
					t.Fatalf("test bug: topK %v gives k=%d, want %d", topK, got, k)
				}
				for _, kind := range []QuantKind{QuantInt8, QuantInt16} {
					got, err := EncodeDelta(kind, 5, 2, 9, 8, base, state, topK)
					if err != nil {
						t.Fatalf("%s dim=%d k=%d %v: %v", shape.name, dim, k, kind, err)
					}
					want := oracleEncodeDelta(kind, 5, 2, 9, 8, base, state, topK)
					if len(got.Indices) != k {
						t.Fatalf("%s dim=%d k=%d %v: %d indices", shape.name, dim, k, kind, len(got.Indices))
					}
					assertPayloadEqual(t, got, want)
					if err := got.Validate(); err != nil {
						t.Fatalf("%s dim=%d k=%d %v: %v", shape.name, dim, k, kind, err)
					}
				}
			}
			// Dense encodes share the range scan and rounding loops.
			got, err := EncodeDelta(QuantInt8, 5, 2, 9, 8, base, state, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertPayloadEqual(t, got, oracleEncodeDelta(QuantInt8, 5, 2, 9, 8, base, state, 0))
		}
	}
}

// payloadDigest hashes everything a payload puts on the wire that the
// encoder computes: the range bits, the indices and the levels.
func payloadDigest(p *DeltaPayload) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Lo))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Hi))
	h.Write(b[:])
	for _, ix := range p.Indices {
		binary.LittleEndian.PutUint32(b[:4], ix)
		h.Write(b[:4])
	}
	for _, q := range p.Q {
		binary.LittleEndian.PutUint16(b[:2], q)
		h.Write(b[:2])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodeDeltaGoldenPayload pins full payloads at the FCNN6 state size
// (485,572 coordinates — the benchmark's quantized workload) to digests
// recorded from the sort-based encoder at commit 6d91c9d, so the payload
// bytes cannot drift even if encoder and oracle were changed together.
func TestEncodeDeltaGoldenPayload(t *testing.T) {
	const dim = 485572
	base := quantVec(41, dim)
	state := quantVec(42, dim)
	for _, tc := range []struct {
		kind   QuantKind
		topK   float64
		count  int
		digest string
	}{
		{QuantInt8, 0.1, 48558, "c196afe2952f908d84fa0f99afea0635fa768f7b33b1c6f713eef9ebc4627a3e"},
		{QuantInt16, 0.1, 48558, "be2f8004dacfe0019596b866ea1b5daa2f5e0a758697ea2341717479322a15c1"},
		{QuantInt8, 0, dim, "2a3737a4df6ec4c44eeb00489e7ab80a19ccbeedfc1db82719038bdefaee4a77"},
	} {
		p, err := EncodeDelta(tc.kind, 7, 1, 3, 3, base, state, tc.topK)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Q) != tc.count {
			t.Errorf("%v topK=%v: %d levels, want %d", tc.kind, tc.topK, len(p.Q), tc.count)
		}
		if got := payloadDigest(p); got != tc.digest {
			t.Errorf("%v topK=%v: payload digest %s, want %s", tc.kind, tc.topK, got, tc.digest)
		}
	}
}

// TestDeltaEncoderReuse drives one encoder and one payload through encodes
// of different shapes — sparse after dense, a smaller state after a larger
// one, a constant delta after a varied one — and checks each against a
// fresh EncodeDelta: nothing of an earlier encode may leak into a later one.
func TestDeltaEncoderReuse(t *testing.T) {
	var enc DeltaEncoder
	var p DeltaPayload
	steps := []struct {
		dim  int
		kind QuantKind
		topK float64
		flat bool
	}{
		{512, QuantInt8, 0.25, false},
		{512, QuantInt8, 0, false},
		{2048, QuantInt16, 0.1, false},
		{100, QuantInt8, 0.5, false},
		{100, QuantInt8, 0.5, true},
		{100, QuantInt16, 0, true},
		{2048, QuantInt8, 0.1, false},
	}
	for i, st := range steps {
		base := quantVec(int64(2*i), st.dim)
		state := quantVec(int64(2*i+1), st.dim)
		if st.flat {
			for j := range state {
				state[j] = base[j]
			}
		}
		if err := enc.Encode(&p, st.kind, 3, 1, i, i, base, state, st.topK); err != nil {
			t.Fatal(err)
		}
		want, err := EncodeDelta(st.kind, 3, 1, i, i, base, state, st.topK)
		if err != nil {
			t.Fatal(err)
		}
		assertPayloadEqual(t, &p, want)
	}
}

// TestDeltaEncoderSteadyStateAllocs is the scratch-reuse guarantee: once an
// encoder and its payload have seen a state size, further encodes allocate
// nothing, sparse or dense.
func TestDeltaEncoderSteadyStateAllocs(t *testing.T) {
	const dim = 4096
	base := quantVec(1, dim)
	state := quantVec(2, dim)
	for _, topK := range []float64{0.1, 0} {
		var enc DeltaEncoder
		var p DeltaPayload
		round := 0
		encode := func() {
			if err := enc.Encode(&p, QuantInt8, 7, 3, round, round, base, state, topK); err != nil {
				t.Fatal(err)
			}
			round++
		}
		encode() // sizes the scratch
		if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
			t.Errorf("topK=%v: steady-state Encode allocates %v times per call, want 0", topK, allocs)
		}
	}
}

// TestKthLargestAbsDiff pins the selection kernel's contract on a small
// vector with ties and both zeros, including where NaN and Inf sort.
func TestKthLargestAbsDiff(t *testing.T) {
	negZero := math.Copysign(0, -1)
	v := []float64{3, -1, negZero, -5, 1, 0, 3}
	zero := make([]float64, len(v))
	for _, tc := range []struct {
		k         int
		threshold float64
		above     int
	}{
		{1, 5, 0}, {2, 3, 1}, {3, 3, 1}, {4, 1, 3}, {5, 1, 3}, {6, 0, 5}, {7, 0, 5},
	} {
		threshold, above := KthLargestAbsDiff(v, zero, tc.k)
		if threshold != tc.threshold || math.Signbit(threshold) || above != tc.above {
			t.Errorf("k=%d: threshold %v above %d, want %v above %d", tc.k, threshold, above, tc.threshold, tc.above)
		}
	}
	// The magnitudes are of the differences, not of either operand.
	if threshold, above := KthLargestAbsDiff([]float64{10, 10, 10}, []float64{9, 12, 10}, 1); threshold != 2 || above != 0 {
		t.Errorf("differences {1,-2,0}: k=1 gave %v above %d, want 2 above 0", threshold, above)
	}
	w := []float64{1, math.Inf(-1), math.NaN(), 2}
	if threshold, above := KthLargestAbsDiff(w, zero[:4], 1); !math.IsNaN(threshold) || above != 0 {
		t.Errorf("NaN must sort first: got %v above %d", threshold, above)
	}
	if threshold, above := KthLargestAbsDiff(w, zero[:4], 2); !math.IsInf(threshold, 1) || above != 1 {
		t.Errorf("Inf must sort second: got %v above %d", threshold, above)
	}
}

// FuzzEncodeDeltaTopK feeds the encoder arbitrary float64 bit patterns (so
// denormals, signed zeros and near-equal magnitudes turn up unprompted) and
// arbitrary k: whenever the delta is finite the payload must equal the sort
// oracle's and pass the decoder's Validate; when it is not, the encode must
// be refused.
func FuzzEncodeDeltaTopK(f *testing.F) {
	seed := func(k uint16, wide bool, vals ...float64) {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, k, wide)
	}
	seed(3, false, 0.1, -5, 0.2, 5, -0.3, 0.1, 4, -0.1)
	seed(1, true, 0, math.Copysign(0, -1), 0, 0)
	seed(2, false, 1, 1, 1, 1, 1)
	seed(4, true, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 2)
	seed(1, false, 1, math.NaN(), 2)
	f.Fuzz(func(t *testing.T, raw []byte, k uint16, wide bool) {
		dim := len(raw) / 8
		if dim < 2 {
			return
		}
		state := make([]float64, dim)
		finite := true
		for i := range state {
			state[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(state[i]) || math.IsInf(state[i], 0) {
				finite = false
			}
		}
		base := make([]float64, dim)
		kind := QuantInt8
		if wide {
			kind = QuantInt16
		}
		count := 1 + int(k)%(dim-1) // 1..dim−1
		topK := (float64(count) - 0.5) / float64(dim)
		got, err := EncodeDelta(kind, 9, 4, 2, 1, base, state, topK)
		if !finite {
			if err == nil {
				t.Fatalf("non-finite delta %v was encoded", state)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoder would refuse the payload: %v", err)
		}
		if len(got.Indices) != count {
			t.Fatalf("%d indices, want %d", len(got.Indices), count)
		}
		assertPayloadEqual(t, got, oracleEncodeDelta(kind, 9, 4, 2, 1, base, state, topK))
	})
}

// TestDeltaPayloadValidate drives the structural checks a decoder relies on.
func TestDeltaPayloadValidate(t *testing.T) {
	ok := &DeltaPayload{Kind: QuantInt8, Dim: 3, Lo: -1, Hi: 1, Q: []uint16{0, 128, 255}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := []struct {
		name string
		p    DeltaPayload
	}{
		{"bad kind", DeltaPayload{Kind: QuantNone, Dim: 3, Q: []uint16{0, 0, 0}}},
		{"zero dim", DeltaPayload{Kind: QuantInt8, Dim: 0}},
		{"nan range", DeltaPayload{Kind: QuantInt8, Dim: 1, Lo: math.NaN(), Q: []uint16{0}}},
		{"inverted range", DeltaPayload{Kind: QuantInt8, Dim: 1, Lo: 1, Hi: 0, Q: []uint16{0}}},
		{"dense size mismatch", DeltaPayload{Kind: QuantInt8, Dim: 3, Q: []uint16{0}}},
		{"sparse size mismatch", DeltaPayload{Kind: QuantInt8, Dim: 3, Indices: []uint32{0, 1}, Q: []uint16{0}}},
		{"unsorted indices", DeltaPayload{Kind: QuantInt8, Dim: 3, Indices: []uint32{1, 0}, Q: []uint16{0, 0}}},
		{"index out of range", DeltaPayload{Kind: QuantInt8, Dim: 3, Indices: []uint32{0, 3}, Q: []uint16{0, 0}}},
		{"int8 level overflow", DeltaPayload{Kind: QuantInt8, Dim: 1, Hi: 1, Q: []uint16{256}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.p)
		}
	}
}

// TestQuantizedStreamingFoldOrderInvariance is the determinism acceptance
// property: quantized uploads, dequantized and folded into the exact
// fixed-point streaming aggregator, must produce a bit-identical aggregate
// in every arrival order. Quantization happens per (seed, client, round)
// with counter-mode hashing, so reordering connections changes nothing.
func TestQuantizedStreamingFoldOrderInvariance(t *testing.T) {
	const (
		numClients = 24
		dim        = 512
		round      = 6
		seed       = 19
	)
	broadcast := quantVec(100, dim)
	reconstructed := make([][]float64, numClients)
	for id := 0; id < numClients; id++ {
		state := quantVec(200+int64(id), dim)
		p, err := EncodeDelta(QuantInt8, seed, id, round, round, broadcast, state, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		reconstructed[id], err = p.Apply(broadcast, nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	fold := func(order []int) []float64 {
		agg := NewStreamingFedAvg()
		agg.Begin(round, broadcast)
		for _, id := range order {
			err := agg.Fold(&Update{ClientID: id, Round: round, State: reconstructed[id], NumSamples: 1 + id%7})
			if err != nil {
				t.Fatal(err)
			}
		}
		out, err := agg.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	order := make([]int, numClients)
	for i := range order {
		order[i] = i
	}
	want := fold(order)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := fold(order)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: aggregate[%d] = %x, want %x (fold must be order-invariant bit-for-bit)",
					trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}

	// And the whole pipeline (encode → apply → fold) re-run from scratch
	// must reproduce the identical aggregate: no hidden state anywhere.
	again := make([][]float64, numClients)
	for id := 0; id < numClients; id++ {
		state := quantVec(200+int64(id), dim)
		p, err := EncodeDelta(QuantInt8, seed, id, round, round, broadcast, state, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		again[id], err = p.Apply(broadcast, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	copy(reconstructed, again)
	rerun := fold(order)
	for i := range want {
		if rerun[i] != want[i] {
			t.Fatalf("re-run aggregate[%d] differs: %x vs %x", i, math.Float64bits(rerun[i]), math.Float64bits(want[i]))
		}
	}
}

// TestParseQuantKind covers the flag-value mapping.
func TestParseQuantKind(t *testing.T) {
	for s, want := range map[string]QuantKind{"": QuantNone, "none": QuantNone, "int8": QuantInt8, "int16": QuantInt16} {
		got, err := ParseQuantKind(s)
		if err != nil || got != want {
			t.Errorf("ParseQuantKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseQuantKind("int32"); err == nil {
		t.Error("ParseQuantKind accepted int32")
	}
}
