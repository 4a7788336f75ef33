package metrics

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
}

func TestAUCInvertedSeparation(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("AUC = %v, want 0", auc)
	}
}

func TestAUCAllTied(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("AUC with ties = %v, want 0.5", auc)
	}
}

func TestAUCKnownMixedValue(t *testing.T) {
	// scores: pos {3, 1}, neg {2, 0}. Pairs: (3>2),(3>0),(1<2),(1>0) => 3/4.
	scores := []float64{3, 1, 2, 0}
	labels := []bool{true, true, false, false}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1}, []bool{true, false}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("mismatched lengths: %v", err)
	}
	if _, err := AUC([]float64{1, 2}, []bool{true, true}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("single class: %v", err)
	}
}

// Property: AUC is invariant under strictly monotone transforms of scores.
func TestQuickAUCMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]bool, n)
		labels[0], labels[1] = true, false // guarantee both classes
		for i := range scores {
			scores[i] = rng.NormFloat64()
			if i >= 2 {
				labels[i] = rng.Float64() < 0.5
			}
		}
		a1, err := AUC(scores, labels)
		if err != nil {
			return false
		}
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(s)*3 + 1
		}
		a2, err := AUC(transformed, labels)
		if err != nil {
			return false
		}
		return math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping all labels maps AUC to 1-AUC.
func TestQuickAUCSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]bool, n)
		flipped := make([]bool, n)
		labels[0], labels[1] = true, false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			if i >= 2 {
				labels[i] = rng.Float64() < 0.5
			}
			flipped[i] = !labels[i]
		}
		a1, err := AUC(scores, labels)
		if err != nil {
			return false
		}
		a2, err := AUC(scores, flipped)
		if err != nil {
			return false
		}
		return math.Abs(a1+a2-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h, err := Histogram([]float64{0, 0.5, 1, 2, -1}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0 and -1 (clamped) -> bin 0; 0.5 -> bin 1; 1, 2 (clamped) -> bin 1.
	if math.Abs(h[0]-0.4) > 1e-12 || math.Abs(h[1]-0.6) > 1e-12 {
		t.Fatalf("histogram = %v", h)
	}
	if _, err := Histogram(nil, 0, 1, 2); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty histogram: %v", err)
	}
	if _, err := Histogram([]float64{1}, 1, 0, 2); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad range: %v", err)
	}
	if _, err := Histogram([]float64{1}, 0, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no bins: %v", err)
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0, 0.5, 0.5}
	js, err := JSDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if js <= 0 || js > math.Log(2)+1e-9 {
		t.Fatalf("JS = %v, want in (0, ln2]", js)
	}
	// Symmetry.
	js2, err := JSDivergence(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(js-js2) > 1e-12 {
		t.Fatal("JS not symmetric")
	}
	// Identity of indiscernibles.
	same, err := JSDivergence(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if same > 1e-12 {
		t.Fatalf("JS(p,p) = %v", same)
	}
	// Disjoint supports maximize JS at ln 2.
	a := []float64{1, 0}
	b := []float64{0, 1}
	maxJS, err := JSDivergence(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(maxJS-math.Log(2)) > 1e-9 {
		t.Fatalf("disjoint JS = %v, want ln2", maxJS)
	}
	if _, err := JSDivergence(p, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.9, 0.1}
	kl, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if math.Abs(kl-want) > 1e-9 {
		t.Fatalf("KL = %v, want %v", kl, want)
	}
	if _, err := KLDivergence(p, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestJSDivergenceSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	c := make([]float64, 5000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64() + 3 // shifted distribution
	}
	near, err := JSDivergenceSamples(a, b, 30)
	if err != nil {
		t.Fatal(err)
	}
	far, err := JSDivergenceSamples(a, c, 30)
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Fatalf("JS(same)=%v should be < JS(shifted)=%v", near, far)
	}
	// Identical constant samples -> zero divergence.
	zero, err := JSDivergenceSamples([]float64{1, 1}, []float64{1, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("constant JS = %v", zero)
	}
	if _, err := JSDivergenceSamples(nil, a, 10); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty input: %v", err)
	}
}

func TestCostMeter(t *testing.T) {
	m := NewCostMeter()
	m.AddClientTrain(100 * time.Millisecond)
	m.AddClientTrain(200 * time.Millisecond)
	m.AddServerAgg(10 * time.Millisecond)
	m.AddDefenseBytes(1024)
	m.SamplePhase(PhaseTrain)
	r := m.Report()
	if r.MeanClientTrain != 150*time.Millisecond {
		t.Fatalf("MeanClientTrain = %v", r.MeanClientTrain)
	}
	if r.MeanServerAgg != 10*time.Millisecond {
		t.Fatalf("MeanServerAgg = %v", r.MeanServerAgg)
	}
	if r.PeakAllocBytes == 0 {
		t.Fatal("PeakAllocBytes not sampled")
	}
	if r.DefenseBytes != 1024 {
		t.Fatalf("DefenseBytes = %d", r.DefenseBytes)
	}
}

func TestCostMeterEmpty(t *testing.T) {
	r := NewCostMeter().Report()
	if r.MeanClientTrain != 0 || r.MeanServerAgg != 0 {
		t.Fatal("empty meter should report zeros")
	}
}

func TestOverhead(t *testing.T) {
	if o := Overhead(135*time.Millisecond, 100*time.Millisecond); math.Abs(o-35) > 1e-9 {
		t.Fatalf("Overhead = %v, want 35", o)
	}
	if Overhead(time.Second, 0) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 3: overheads", "Defense", "Train", "Agg")
	tb.AddRow("WDP", "+35%", "+0%")
	tb.AddRow("DINAR", 0.0, 0.0)
	out := tb.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "WDP") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "0") {
		t.Fatalf("float formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}
