package fl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkTerm folds c into a cell seeded with (hi, lo) through the production
// kernel and through the reference and requires the same verdict, the same
// accumulator bits and the same finalized float.
func checkTerm(t *testing.T, hi, lo uint64, c float64) {
	t.Helper()
	got, want := fixAcc{hi, lo}, refAcc{hi, lo}
	gotOK, wantOK := got.addFloat(c), want.addFloat(c)
	if gotOK != wantOK || got.hi != want.hi || got.lo != want.lo {
		t.Fatalf("c=%g (%#x) into %#x:%#x: got %#x:%#x ok=%v, reference %#x:%#x ok=%v",
			c, math.Float64bits(c), hi, lo, got.hi, got.lo, gotOK, want.hi, want.lo, wantOK)
	}
	if g, w := math.Float64bits(got.float()), math.Float64bits(want.float()); g != w {
		t.Fatalf("cell %#x:%#x: float() %#x, reference %#x", got.hi, got.lo, g, w)
	}
}

// fixEdges is the conversion's edge table: every place the bit layout
// changes behaviour.
func fixEdges() []float64 {
	pow := func(e int) float64 { return math.Ldexp(1, e) }
	edges := []float64{
		0, 1, 1.5, math.Pi, 300, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, pow(-1023), // subnormals
		pow(-1022), // the smallest normal
		math.NaN(), math.Inf(1),
	}
	// Powers of two where the shift changes regime, each with its two
	// neighbours: 2^-113 and 2^-72 (the whole mantissa shifts out), 2^-61 and
	// 2^-60 (the first surviving bit), 2^-8 and 2^4 (the term crosses into
	// the high limb), 2^39 and 2^40 (the magnitude bound).
	for _, e := range []int{-113, -73, -72, -61, -60, -59, -8, -7, 3, 4, 39, 40, 41} {
		p := pow(e)
		edges = append(edges, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)))
	}
	for _, c := range edges {
		edges = append(edges, -c)
	}
	return edges
}

// TestFixFromFloatMatchesReference: the bit-extracting conversion equals the
// Frexp one on the edge table, under every scale, into empty and into full
// cells.
func TestFixFromFloatMatchesReference(t *testing.T) {
	scales := []float64{1, 0, math.Copysign(0, -1), 300, 0.5, 1.0 / 3, 1e-20, 1e20}
	for _, x := range fixEdges() {
		for _, scale := range scales {
			c := x * scale
			checkTerm(t, 0, 0, c)
			checkTerm(t, ^uint64(0), ^uint64(0), c)      // −1·2^-60: every carry ripples
			checkTerm(t, 0x0123456789abcdef, 1<<63, c)   // carry out of the low limb
			checkTerm(t, 1<<63|0xfedcba9876543210, 5, c) // a negative cell
		}
	}
}

// TestFixFloatMatchesReference: the power-of-two finalize equals the Ldexp
// one on random cells of every magnitude and sign.
func TestFixFloatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cells := []fixAcc{{0, 0}, {0, 1}, {^uint64(0), ^uint64(0)}, {1 << 63, 0}, {1<<63 - 1, ^uint64(0)}, {0, 1 << 63}, {0, 1<<63 - 1}}
	for i := 0; i < 200000; i++ {
		a := fixAcc{rng.Uint64(), rng.Uint64()}
		switch i % 4 {
		case 1:
			a.hi = uint64(int64(a.hi) >> 40) // realistic: a few bits above the low limb
		case 2:
			a.hi = uint64(int64(a.hi) >> 63) // the low limb alone, either sign
		case 3:
			a.hi, a.lo = uint64(int64(a.hi)>>63), a.lo>>uint(rng.Intn(64))
		}
		cells = append(cells, a)
	}
	for _, a := range cells {
		if g, w := math.Float64bits(a.float()), math.Float64bits(refAcc(a).float()); g != w {
			t.Fatalf("cell %#x:%#x: float() %#x, reference %#x", a.hi, a.lo, g, w)
		}
	}
}

// FuzzFixFromFloat runs the same comparison on raw bit patterns × scale.
func FuzzFixFromFloat(f *testing.F) {
	for _, x := range fixEdges() {
		f.Add(math.Float64bits(x), math.Float64bits(300), uint64(0), uint64(0))
	}
	f.Add(math.Float64bits(-0.25), math.Float64bits(1.0/3), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, xBits, scaleBits, hi, lo uint64) {
		checkTerm(t, hi, lo, math.Float64frombits(xBits)*math.Float64frombits(scaleBits))
	})
}

// permutations calls fn with every ordering of ups (Heap's algorithm; the
// slice handed to fn is reused).
func permutations(ups []*Update, fn func([]*Update)) {
	var rec func(k int)
	rec = func(k int) {
		if k <= 1 {
			fn(ups)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			j := 0
			if k%2 == 0 {
				j = i
			}
			ups[j], ups[k-1] = ups[k-1], ups[j]
		}
	}
	rec(len(ups))
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestStreamingFedAvgMatchesReference is the property the one-accumulator
// aggregator rests on: for cohorts with zero, non-zero and mixed weights,
// staleness decay, and values that poison one sum and not the other, every
// arrival order finalizes to the bits of the two-accumulator reference — on
// a fresh aggregator, on a reused one, and through the pooled FedAvg.
func TestStreamingFedAvgMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), // poison under any weight, zero included
		math.Ldexp(1, 41), -1e300, // poison unless the weight is zero
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Ldexp(1, -61),
	}
	reused := NewStreamingFedAvg()
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(5)
		dim := 1 + rng.Intn(12)
		ups := make([]*Update, n)
		for i := range ups {
			u := &Update{ClientID: i, State: make([]float64, dim)}
			switch trial % 3 { // all zero, all non-zero, mixed
			case 1:
				u.NumSamples = 1 + rng.Intn(500)
			case 2:
				u.NumSamples = rng.Intn(2) * (1 + rng.Intn(500))
			}
			if rng.Intn(3) == 0 {
				u.Staleness = 1 + rng.Intn(6)
			}
			for j := range u.State {
				u.State[j] = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					u.State[j] = specials[rng.Intn(len(specials))]
				}
			}
			ups[i] = u
		}
		want, err := refFedAvgOf(ups)
		if err != nil {
			t.Fatal(err)
		}
		describe := func(order []*Update) []int {
			ids := make([]int, len(order))
			for i, u := range order {
				ids[i] = u.ClientID
			}
			return ids
		}
		permutations(ups, func(order []*Update) {
			ref, err := refFedAvgOf(order)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(ref, want); i >= 0 {
				t.Fatalf("trial %d order %v: the reference itself depends on order at %d", trial, describe(order), i)
			}
			for name, got := range map[string][]float64{
				"fresh":  foldAll(t, NewStreamingFedAvg(), nil, order),
				"reused": foldAll(t, reused, make([]float64, dim), order),
			} {
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("trial %d order %v, %s aggregator, coordinate %d: %v (%#x), reference %v (%#x)",
						trial, describe(order), name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			got, err := FedAvg(order)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d order %v, FedAvg, coordinate %d: %v, reference %v", trial, describe(order), i, got[i], want[i])
			}
		})
	}
}

// TestFoldRejectsVanishingWeight: a non-zero weight below 2^-60 truncates to
// a zero term in the weight total, so the zero-weight switch would miss it
// and the result would depend on arrival order; the fold refuses it.
func TestFoldRejectsVanishingWeight(t *testing.T) {
	tiny := &Update{ClientID: 9, NumSamples: 1, Staleness: 1 << 61, State: []float64{1e6}}
	real := &Update{ClientID: 3, NumSamples: 5, State: []float64{2}}
	for _, order := range [][]*Update{{tiny, real}, {real, tiny}} {
		agg := NewStreamingFedAvg()
		var err error
		for _, u := range order {
			if e := agg.Fold(u); e != nil {
				err = e
			}
		}
		if err == nil || !strings.Contains(err.Error(), "client 9") || !strings.Contains(err.Error(), "unrepresentable weight") {
			t.Fatalf("error %v, want client 9's weight refused as unrepresentable", err)
		}
	}
	// The smallest weight that survives truncation folds, in either order,
	// to the reference's bits.
	edge := &Update{ClientID: 9, NumSamples: 1, Staleness: 1<<60 - 1, State: []float64{1e6}}
	want, err := refFedAvgOf([]*Update{edge, real})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]*Update{{edge, real}, {real, edge}} {
		if i := sameBits(foldAll(t, NewStreamingFedAvg(), nil, order), want); i >= 0 {
			t.Fatalf("edge weight 2^-60 first=%d: not the reference's bits", order[0].ClientID)
		}
	}
}

// TestFoldRejectsNegativeSamples: a negative sample count is a negative
// weight, whose total can cancel to zero and turn the round into the plain
// mean; the fold refuses it by client, through FedAvg and through a
// streamed server round, and the round goes on without it.
func TestFoldRejectsNegativeSamples(t *testing.T) {
	good := &Update{ClientID: 3, NumSamples: 4, State: []float64{1, 2}}
	bad := &Update{ClientID: 9, NumSamples: -4, State: []float64{5, 6}}
	wantErr := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "client 9") || !strings.Contains(err.Error(), "negative sample count -4") {
			t.Fatalf("error %v, want one naming client 9 and its negative sample count", err)
		}
	}
	_, err := FedAvg([]*Update{good, bad})
	wantErr(err)

	srv, err := NewServer([]float64{0, 0}, &fedAvgDefense{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.BeginRound(NewStreamingFedAvg()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Offer(good); err != nil {
		t.Fatal(err)
	}
	v, err := srv.Offer(bad)
	wantErr(err)
	if v != OfferRejected {
		t.Fatalf("verdict %v, want rejected", v)
	}
	if err := srv.FinishRound(); err != nil {
		t.Fatal(err)
	}
	if got := srv.GlobalState(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("aggregate %v, want the one sound update [1 2]", got)
	}
}

// exactCohort is a cohort whose fold exercises every kernel path: ordinary
// values, both poisons, magnitudes that contribute nothing.
func exactCohort(dim int) []*Update {
	rng := rand.New(rand.NewSource(5))
	ups := synthUpdates(rng, 3, dim)
	ups[1].Staleness = 2
	ups[0].State[1] = math.NaN()
	ups[2].State[dim/2] = 1e300
	ups[1].State[dim-1] = math.SmallestNonzeroFloat64
	return ups
}

// TestStreamingFedAvgSteadyStateAllocs: a reused aggregator folds a round
// without allocating, Finalize allocates the state it returns and nothing
// else, and the batch path pays at most that plus the pool's bookkeeping.
func TestStreamingFedAvgSteadyStateAllocs(t *testing.T) {
	const dim = 20000
	ups := exactCohort(dim)
	prev := make([]float64, dim)
	agg := NewStreamingFedAvg()
	fold := func() {
		agg.Begin(0, prev)
		for _, u := range ups {
			if err := agg.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	fold() // sizes the accumulator
	if allocs := testing.AllocsPerRun(20, fold); allocs != 0 {
		t.Errorf("steady-state Begin+Fold allocates %v times per round, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := agg.Finalize(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Finalize allocates %v times, want 1 (the returned state)", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := FedAvg(ups); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("steady-state FedAvg allocates %v times per call, want at most 2", allocs)
	}
	if got, want := agg.MemoryBytes(), 17*dim+32; got != want {
		t.Errorf("MemoryBytes %d, want %d (17 bytes per coordinate and the two totals)", got, want)
	}
}
