package fl

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/parallel"
	"repro/internal/tensor"
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

// FuzzFixFromFloat runs the same comparison on raw bit patterns × scale,
// once through the cell and once through a vector on every kernel tier: x
// at every third coordinate, so in several lanes of each block and in the
// scalar tail, among ordinary terms.
func FuzzFixFromFloat(f *testing.F) {
	for _, x := range fixEdges() {
		f.Add(math.Float64bits(x), math.Float64bits(300), uint64(0), uint64(0))
	}
	f.Add(math.Float64bits(-0.25), math.Float64bits(1.0/3), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, xBits, scaleBits, hi, lo uint64) {
		x, scale := math.Float64frombits(xBits), math.Float64frombits(scaleBits)
		checkTerm(t, hi, lo, x*scale)
		state := make([]float64, 21)
		for i := range state {
			state[i] = float64(i) - 9.75
			if i%3 == 0 {
				state[i] = x
			}
		}
		kt.Check(t, vecCase(fmt.Sprint(state), hi, lo, state, scale))
	})
}

// kt is the kernel harness over the tensor kernels' tier loop, at one pool
// size: neither the exact fold nor FedAvg's tiles use the compute pool.
var kt = kerneltest.Env{Tiers: tensor.ForEachKernelISA, SetWorkers: parallel.SetWorkers, SetMinWork: parallel.SetMinWork, Pools: []int{1}}

// vecCase folds state·scale into an exactVec whose every cell starts at
// (hi, lo) and into the reference, and requires the same cells, the same
// poison marks (by cause) and the same finalized bits under four divisors.
func vecCase(name string, hi, lo uint64, state []float64, scale float64) kerneltest.Case {
	n := len(state)
	outputs := func(his, los []uint64, marks []uint8, finalize func(float64, []float64)) [][]float64 {
		res := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := range state {
			res[0][i], res[1][i], res[2][i] = math.Float64frombits(his[i]), math.Float64frombits(los[i]), float64(marks[i])
		}
		for _, div := range []float64{1, 3, 0.7, 1e-300} {
			res = append(res, make([]float64, n))
			finalize(div, res[len(res)-1])
		}
		return res
	}
	return kerneltest.Case{Name: fmt.Sprintf("%s·%g into %#x:%#x", name, scale, hi, lo),
		Ref: func([][]float64) [][]float64 {
			ref, his, los, marks := newRefVec(n), make([]uint64, n), make([]uint64, n), make([]uint8, n)
			for i := range ref.acc {
				ref.acc[i] = refAcc{hi, lo}
			}
			ref.addScaled(state, scale)
			for i, x := range state {
				his[i], los[i] = ref.acc[i].hi, ref.acc[i].lo
				switch c := x * scale; {
				case math.IsNaN(c) || math.IsInf(c, 0):
					marks[i] = poisonNonFinite
				case math.Abs(c) >= 1<<40:
					marks[i] = poisonRange
				}
			}
			return outputs(his, los, marks, ref.finalize)
		},
		Run: func([][]float64) ([][]float64, int) {
			var v exactVec
			v.reset(n)
			for i := range state {
				v.hi[i], v.lo[i] = hi, lo
			}
			v.addScaled(state, scale)
			return outputs(v.hi, v.lo, v.bad, v.finalize), -1
		}}
}

// TestExactKernelBitIdentical holds the fold and finalize, on every kernel
// tier the host runs, to the reference: each edge term — ±0, a subnormal,
// the 2^-60 and 2^40 edges with their neighbours, ±Inf, NaN payloads — at
// every lane of a block and in the tail, among ordinary terms, under
// weights that keep, shrink, grow and zero it, into empty cells, cells one
// carry from rippling, negative ones and the most negative one.
func TestExactKernelBitIdentical(t *testing.T) {
	pow := func(e int) float64 { return math.Ldexp(1, e) }
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
	}
	for _, e := range []int{-61, -60, 39, 40} {
		p := pow(e)
		edges = append(edges, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)), -p)
	}
	cells := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {0x0123456789abcdef, 1 << 63}, {1<<63 | 0xfedcba9876543210, 5}, {1 << 63, 0}}
	const n = 3*8 + 5 // three blocks and a tail
	kt.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(41, nil)
		for _, x := range edges {
			for lane := 0; lane < n; lane++ {
				state := g.Normal(n)
				for i := range state {
					state[i] *= 100
				}
				state[lane] = x
				for _, scale := range []float64{1, 300, 1.0 / 3, 0} {
					for _, c := range cells {
						emit(vecCase(fmt.Sprintf("%g at %d", x, lane), c[0], c[1], state, scale))
					}
				}
			}
		}
	})
}

// TestFedAvgTiledBitIdentical holds the tiled FedAvg, on every kernel tier
// the host runs, to StreamingFedAvg folded in the same order: random
// cohorts with zero and mixed weights, staleness, both poisons and terms
// under 2^-60, at lengths on both sides of a tile and of a kernel block, and
// the same error, from the same update, for a cohort with a bad one.
func TestFedAvgTiledBitIdentical(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(-1), math.Ldexp(1, 41), -1e300, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Ldexp(1, -61)}
	lengths := []int{0, 1, 7, 8, 9, 100, fedAvgTile - 1, fedAvgTile, fedAvgTile + 1, 2*fedAvgTile + 13}
	kt.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(43, specials)
		for trial := 0; trial < 60; trial++ {
			dim := lengths[trial%len(lengths)]
			ups := make([]*Update, 1+g.Intn(4))
			for i := range ups {
				u := &Update{ClientID: i, State: g.Plant(g.Normal(dim), 50)}
				switch trial % 3 { // all zero, all non-zero, mixed
				case 1:
					u.NumSamples = 1 + g.Intn(500)
				case 2:
					u.NumSamples = g.Intn(2) * (1 + g.Intn(500))
				}
				if g.Intn(3) == 0 {
					u.Staleness = 1 + g.Intn(6)
				}
				ups[i] = u
			}
			if trial%10 == 9 { // one update the fold refuses
				bad := *ups[len(ups)-1]
				switch trial / 10 % 4 {
				case 0:
					bad.NumSamples = -1
				case 1:
					bad.State = bad.State[:0:0]
				case 2: // a weight of 2^-61, the TestFoldRejectsVanishingWeight shape
					bad.NumSamples, bad.Staleness = 1, 1<<61
				default:
					ups[len(ups)-1] = nil
				}
				if ups[len(ups)-1] != nil {
					ups[len(ups)-1] = &bad
				}
			}
			emit(kerneltest.Case{Name: fmt.Sprintf("trial %d (dim %d)", trial, dim), Rejects: trial%10 == 9,
				Ref: func([][]float64) [][]float64 {
					agg := NewStreamingFedAvg()
					for _, u := range ups {
						if err := agg.Fold(u); err != nil {
							panic(err)
						}
					}
					want, err := agg.Finalize()
					if err != nil {
						panic(err)
					}
					return [][]float64{want}
				},
				Run: func([][]float64) ([][]float64, int) {
					got, err := FedAvg(ups)
					if err != nil {
						panic(err)
					}
					return [][]float64{got}, -1
				}})
		}
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
			if i := kerneltest.FirstDiff(ref, want); i >= 0 {
				t.Fatalf("trial %d order %v: the reference itself depends on order at %d", trial, describe(order), i)
			}
			for name, got := range map[string][]float64{
				"fresh":  foldAll(t, NewStreamingFedAvg(), nil, order),
				"reused": foldAll(t, reused, make([]float64, dim), order),
			} {
				if i := kerneltest.FirstDiff(got, want); i >= 0 {
					t.Fatalf("trial %d order %v, %s aggregator, coordinate %d: %v (%#x), reference %v (%#x)",
						trial, describe(order), name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			got, err := FedAvg(order)
			if err != nil {
				t.Fatal(err)
			}
			if i := kerneltest.FirstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d order %v, FedAvg, coordinate %d: %v, reference %v", trial, describe(order), i, got[i], want[i])
			}
		})
	}
}

// TestFoldRejectsVanishingWeight: a non-zero weight below 2^-60 truncates to
// a zero term in the weight total, so the zero-weight switch would miss it
// and the result would depend on arrival order; the fold refuses it. On a
// zero-sample update the weight that counts is the decay alone, which the
// zero-weight mean's total would truncate the same way.
func TestFoldRejectsVanishingWeight(t *testing.T) {
	real := &Update{ClientID: 3, NumSamples: 5, State: []float64{2}}
	for _, tc := range []struct {
		name       string
		tiny, mate *Update
	}{
		{"one sample", &Update{ClientID: 9, NumSamples: 1, Staleness: 1 << 61, State: []float64{1e6}}, real},
		{"zero samples", &Update{ClientID: 9, Staleness: 1 << 61, State: []float64{1e6}}, &Update{ClientID: 3, State: []float64{2}}},
	} {
		for _, order := range [][]*Update{{tc.tiny, tc.mate}, {tc.mate, tc.tiny}} {
			agg := NewStreamingFedAvg()
			var err error
			for _, u := range order {
				if e := agg.Fold(u); e != nil {
					err = e
				}
			}
			_, ferr := FedAvg(order)
			for _, err := range []error{err, ferr} {
				if err == nil || !strings.Contains(err.Error(), "client 9") || !strings.Contains(err.Error(), "unrepresentable weight") {
					t.Fatalf("%s, client %d first: error %v, want client 9's weight refused as unrepresentable", tc.name, order[0].ClientID, err)
				}
			}
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
		if i := kerneltest.FirstDiff(foldAll(t, NewStreamingFedAvg(), nil, order), want); i >= 0 {
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
// without allocating, and Finalize and the tiled batch path each allocate
// the state they return and nothing else.
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
	}); allocs != 1 {
		t.Errorf("steady-state FedAvg allocates %v times per call, want 1 (the returned state)", allocs)
	}
	if got, want := agg.MemoryBytes(), 17*dim+32; got != want {
		t.Errorf("MemoryBytes %d, want %d (17 bytes per coordinate and the two totals)", got, want)
	}
}

// BenchmarkExactTiers times, on every kernel tier the host runs, one fold of
// an FCNN6-sized update into a resident accumulator, one finalize of it, and
// the tiled FedAvg of a two-client cohort.
func BenchmarkExactTiers(b *testing.B) {
	const dim = 485_572
	ups := synthUpdates(rand.New(rand.NewSource(7)), 2, dim)
	out := make([]float64, dim)
	var v exactVec
	v.reset(dim)
	tensor.ForEachKernelISA(func(isa string) {
		b.Run("fold/"+isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.addScaled(ups[0].State, 300)
			}
		})
		b.Run("finalize/"+isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.finalize(500, out)
			}
		})
		b.Run("fedavg/"+isa, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FedAvg(ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
