package data

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestRegistryValid(t *testing.T) {
	if len(Registry) != 7 {
		t.Fatalf("registry has %d datasets, want 7 (Table 2)", len(Registry))
	}
	for name, spec := range Registry {
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %q invalid: %v", name, err)
		}
		if spec.Name != name {
			t.Fatalf("spec %q has Name %q", name, spec.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes != 10 {
		t.Fatalf("cifar10 classes = %d", s.Classes)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup should fail for unknown dataset")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names() returned %d, want %d", len(names), len(Registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestSpecInputShapes(t *testing.T) {
	tests := []struct {
		name    string
		wantLen int
	}{
		{"cifar10", 3 * 16 * 16},
		{"speechcommands", 256},
		{"purchase100", 600},
	}
	for _, tt := range tests {
		s, err := Lookup(tt.name)
		if err != nil {
			t.Fatal(err)
		}
		if s.InputLen() != tt.wantLen {
			t.Fatalf("%s InputLen = %d, want %d", tt.name, s.InputLen(), tt.wantLen)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := Lookup("purchase100")
	a, err := GenerateN(spec, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateN(spec, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X.Data() {
		if a.X.Data()[i] != b.X.Data()[i] {
			t.Fatal("same seed should generate identical data")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed should generate identical labels")
		}
	}
	c, err := GenerateN(spec, 200, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X.Data() {
		if a.X.Data()[i] != c.X.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should generate different data")
	}
}

func TestGenerateBalancedClasses(t *testing.T) {
	spec, _ := Lookup("cifar10")
	ds, err := GenerateN(spec, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := ds.ClassCounts()
	for c, n := range counts {
		if n != 50 {
			t.Fatalf("class %d has %d samples, want 50", c, n)
		}
	}
}

func TestGenerateTabularBinary(t *testing.T) {
	spec, _ := Lookup("texas100")
	ds, err := GenerateN(spec, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.X.Data() {
		if v != 0 && v != 1 {
			t.Fatalf("tabular feature %v not binary", v)
		}
	}
}

func TestGenerateClassesSeparable(t *testing.T) {
	// Same-class samples should be closer than cross-class samples on
	// average (otherwise no model could learn).
	spec, _ := Lookup("cifar10")
	ds, err := GenerateN(spec, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Spec.InputLen()
	dist := func(i, j int) float64 {
		xi := ds.X.Data()[i*n : (i+1)*n]
		xj := ds.X.Data()[j*n : (j+1)*n]
		s := 0.0
		for k := range xi {
			d := xi[k] - xj[k]
			s += d * d
		}
		return s
	}
	var same, diff, sameN, diffN float64
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if ds.Y[i] == ds.Y[j] {
				same += dist(i, j)
				sameN++
			} else {
				diff += dist(i, j)
				diffN++
			}
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Skip("degenerate sample")
	}
	if same/sameN >= diff/diffN {
		t.Fatalf("same-class dist %v >= cross-class dist %v", same/sameN, diff/diffN)
	}
}

func TestGenerateErrors(t *testing.T) {
	spec, _ := Lookup("cifar10")
	if _, err := GenerateN(spec, 0, 1); err == nil {
		t.Fatal("accepted zero samples")
	}
	bad := spec
	bad.Channels = 0
	if _, err := GenerateN(bad, 10, 1); err == nil {
		t.Fatal("accepted invalid spec")
	}
}

func TestSubsetAndBatch(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.Subset([]int{1, 3, 5})
	if sub.Len() != 3 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	if sub.Y[1] != ds.Y[3] {
		t.Fatal("subset labels misaligned")
	}
	x, y := ds.Batch(10, 20)
	if x.Dim(0) != 10 || len(y) != 10 {
		t.Fatalf("batch shape %v, labels %d", x.Shape(), len(y))
	}
	if y[0] != ds.Y[10] {
		t.Fatal("batch labels misaligned")
	}
}

func TestBatchesCoverAll(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 53, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = ds.Batches(8, nil, func(x *tensor.Tensor, y []int) error {
		seen += len(y)
		if x.Dim(0) != len(y) {
			t.Fatal("batch tensor/label mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 53 {
		t.Fatalf("batches covered %d samples, want 53", seen)
	}
	if err := ds.Batches(0, nil, func(_ *tensor.Tensor, _ []int) error { return nil }); err == nil {
		t.Fatal("accepted zero batch size")
	}
	wantErr := errors.New("boom")
	err = ds.Batches(8, nil, func(_ *tensor.Tensor, _ []int) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Batches should propagate fn error, got %v", err)
	}
}

// TestBatchesMatchesShuffled holds the gather to its reference: for equal
// seeds Batches yields exactly the (x, y) sequence of Shuffled(rng) cut by
// Batch, bit for bit, the ragged last batch included — and, unshuffled, of
// the dataset itself.
func TestBatchesMatchesShuffled(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 53, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{8, 53, 64} {
		for _, seeded := range []bool{true, false} {
			ref, rng := ds, (*rand.Rand)(nil)
			if seeded {
				ref, rng = ds.Shuffled(rand.New(rand.NewSource(9))), rand.New(rand.NewSource(9))
			}
			lo := 0
			err := ds.Batches(batchSize, rng, func(x *tensor.Tensor, y []int) error {
				wantX, wantY := ref.Batch(lo, min(lo+batchSize, ref.Len()))
				lo += len(y)
				if !slices.Equal(x.Shape(), wantX.Shape()) || !slices.Equal(y, wantY) {
					t.Fatalf("batch %d seeded=%v: shape %v labels %v, want %v %v", batchSize, seeded, x.Shape(), y, wantX.Shape(), wantY)
				}
				for i, v := range x.Data() {
					if math.Float64bits(v) != math.Float64bits(wantX.Data()[i]) {
						t.Fatalf("batch %d seeded=%v: value %d of the batch ending at %d differs", batchSize, seeded, i, lo)
					}
				}
				return nil
			})
			if err != nil || lo != ds.Len() {
				t.Fatalf("batch %d seeded=%v: covered %d of %d samples, err %v", batchSize, seeded, lo, ds.Len(), err)
			}
		}
	}
}

// TestBatchesBytesPerEpoch pins what an epoch may allocate: one batch tensor
// per Batches call (plus one for a ragged last batch), not a shuffled copy of
// the shard and a tensor per batch.
func TestBatchesBytesPerEpoch(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	sampleBytes := 8 * ds.X.Len() / ds.Len()
	rng := rand.New(rand.NewSource(1))
	epoch := func(batchSize int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ds.Batches(batchSize, rng, func(*tensor.Tensor, []int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 32 << 10 // the permutation, the labels, size-class rounding of two tensors
	for _, tc := range []struct{ batchSize, tensors int }{{50, 50}, {64, 64 + 200%64}} {
		if got, want := epoch(tc.batchSize), uint64(tc.tensors*sampleBytes+slack); got > want {
			t.Errorf("an epoch of %d-sample batches over 200 samples allocated %d bytes, want at most %d (the shard is %d)",
				tc.batchSize, got, want, 200*sampleBytes)
		}
	}
}

func TestSplit(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ds.Split(0.8)
	if a.Len() != 80 || b.Len() != 20 {
		t.Fatalf("split = %d/%d", a.Len(), b.Len())
	}
}

func TestFLSplitProtocol(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, err := GenerateN(spec, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFLSplit(ds, rand.New(rand.NewSource(7)))
	if fs.Attacker.Len() != 500 {
		t.Fatalf("attacker pool = %d, want 500", fs.Attacker.Len())
	}
	if fs.Train.Len() != 400 {
		t.Fatalf("train pool = %d, want 400", fs.Train.Len())
	}
	if fs.Test.Len() != 100 {
		t.Fatalf("test pool = %d, want 100", fs.Test.Len())
	}
}

func TestConcat(t *testing.T) {
	spec, _ := Lookup("purchase100")
	a, _ := GenerateN(spec, 30, 8)
	b, _ := GenerateN(spec, 20, 9)
	all, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 50 {
		t.Fatalf("concat len = %d", all.Len())
	}
	if all.Y[30] != b.Y[0] {
		t.Fatal("concat label misaligned")
	}
	other, _ := GenerateN(Registry["cifar10"], 10, 1)
	if _, err := Concat(a, other); err == nil {
		t.Fatal("concat should reject mixed specs")
	}
	if _, err := Concat(); err == nil {
		t.Fatal("concat should reject empty input")
	}
}

func TestPartitionIID(t *testing.T) {
	spec, _ := Lookup("cifar10")
	ds, _ := GenerateN(spec, 100, 10)
	parts, err := PartitionIID(ds, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != 100 {
		t.Fatalf("parts cover %d samples", total)
	}
	if _, err := PartitionIID(ds, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted zero clients")
	}
	if _, err := PartitionIID(ds, 1000, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted more clients than samples")
	}
}

func TestPartitionDirichletSkewOrdering(t *testing.T) {
	spec, _ := Lookup("gtsrb")
	ds, _ := GenerateN(spec, 860, 11)
	rng := rand.New(rand.NewSource(2))

	skewAt := func(alpha float64) float64 {
		parts, err := PartitionDirichlet(ds, 5, alpha, rng)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		total := 0
		for _, p := range parts {
			if p.Len() == 0 {
				t.Fatalf("alpha=%v produced empty client", alpha)
			}
			total += p.Len()
		}
		if total != ds.Len() {
			t.Fatalf("alpha=%v covers %d of %d", alpha, total, ds.Len())
		}
		return SkewMetric(ds, parts)
	}

	low := skewAt(0.2)
	high := skewAt(50)
	iid := skewAt(math.Inf(1))
	if !(low > high) {
		t.Fatalf("skew(0.2)=%v should exceed skew(50)=%v", low, high)
	}
	if iid >= low {
		t.Fatalf("IID skew %v should be below alpha=0.2 skew %v", iid, low)
	}
}

func TestPartitionDirichletErrors(t *testing.T) {
	spec, _ := Lookup("cifar10")
	ds, _ := GenerateN(spec, 100, 12)
	rng := rand.New(rand.NewSource(3))
	if _, err := PartitionDirichlet(ds, 0, 1, rng); err == nil {
		t.Fatal("accepted zero clients")
	}
	if _, err := PartitionDirichlet(ds, 5, 0, rng); err == nil {
		t.Fatal("accepted alpha=0")
	}
	if _, err := PartitionDirichlet(ds, 5, -1, rng); err == nil {
		t.Fatal("accepted negative alpha")
	}
}

// Property: dirichlet samples form a probability vector.
func TestQuickDirichletSimplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.1 + rng.Float64()*5
		k := 2 + rng.Intn(10)
		p := dirichlet(rng, alpha, k)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: gamma samples are positive and have roughly the right mean for
// moderate shapes.
func TestGammaSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range []float64{0.5, 1, 2, 5} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			v := gammaSample(rng, shape)
			if v <= 0 {
				t.Fatalf("gamma(%v) sample %v <= 0", shape, v)
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Fatalf("gamma(%v) mean = %v", shape, mean)
		}
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	spec, _ := Lookup("purchase100")
	ds, _ := GenerateN(spec, 40, 13)
	sh := ds.Shuffled(rand.New(rand.NewSource(5)))
	a, b := ds.ClassCounts(), sh.ClassCounts()
	for c := range a {
		if a[c] != b[c] {
			t.Fatal("shuffle changed class counts")
		}
	}
}

func TestModalityString(t *testing.T) {
	if Image.String() != "image" || Audio.String() != "audio" || Tabular.String() != "tabular" {
		t.Fatal("modality strings wrong")
	}
	if Modality(99).String() == "" {
		t.Fatal("unknown modality should still render")
	}
}
