package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func buildTinyCNN(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	return NewModel(
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewBatchNorm(2),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*4*4, 8, rng),
		NewTanh(),
		NewDense(8, 3, rng),
	)
}

func TestModelSpansMergeBatchNorm(t *testing.T) {
	m := buildTinyCNN(1)
	spans := m.Spans()
	// conv+bn merged, dense, dense => 3 logical layers.
	if len(spans) != 3 {
		t.Fatalf("NumLayers = %d, want 3 (spans: %+v)", len(spans), spans)
	}
	convParams := 2*1*3*3 + 2 // conv w+b
	bnParams := 2 + 2         // gamma+beta
	if spans[0].Len != convParams+bnParams {
		t.Fatalf("span 0 len = %d, want %d", spans[0].Len, convParams+bnParams)
	}
	if spans[0].Offset != 0 {
		t.Fatalf("span 0 offset = %d", spans[0].Offset)
	}
	if spans[1].Offset != spans[0].Len {
		t.Fatalf("span 1 offset = %d, want %d", spans[1].Offset, spans[0].Len)
	}
	total := 0
	for _, s := range spans {
		total += s.Len
	}
	if total != m.NumParams() {
		t.Fatalf("span total %d != NumParams %d", total, m.NumParams())
	}
}

func TestModelStateVectorIncludesRunningStats(t *testing.T) {
	m := buildTinyCNN(3)
	if m.NumState() <= m.NumParams() {
		t.Fatalf("NumState %d should exceed NumParams %d (BN stats)", m.NumState(), m.NumParams())
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 0, 1, 4, 1, 8, 8)
	m.Forward(x, true) // updates running stats

	state := m.StateVector()
	m2 := buildTinyCNN(99)
	if err := m2.SetStateVector(state); err != nil {
		t.Fatal(err)
	}
	// Eval-mode outputs must now agree exactly (same params AND stats).
	o1 := m.Forward(x, false)
	o2 := m2.Forward(x, false)
	for i := range o1.Data() {
		if math.Abs(o1.Data()[i]-o2.Data()[i]) > 1e-12 {
			t.Fatalf("eval outputs diverge at %d", i)
		}
	}
	if err := m2.SetStateVector(state[:5]); err == nil {
		t.Fatal("SetStateVector accepted a short vector")
	}
}

func TestModelLayerGradVectors(t *testing.T) {
	m := buildTinyCNN(4)
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 0, 1, 2, 1, 8, 8)
	out := m.Forward(x, true)
	var loss SoftmaxCrossEntropy
	res, err := loss.Eval(out, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Backward(res.Grad)
	lg := m.LayerGradVectors()
	if len(lg) != m.NumLayers() {
		t.Fatalf("LayerGradVectors len = %d, want %d", len(lg), m.NumLayers())
	}
	total := 0
	for _, g := range lg {
		total += len(g)
	}
	if total != m.NumParams() {
		t.Fatalf("layer grads cover %d params, want %d", total, m.NumParams())
	}
}

func TestModelZeroGrads(t *testing.T) {
	m := buildTinyCNN(5)
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 0, 1, 2, 1, 8, 8)
	out := m.Forward(x, true)
	var loss SoftmaxCrossEntropy
	res, err := loss.Eval(out, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Backward(res.Grad)
	m.ZeroGrads()
	for _, g := range m.GradVector() {
		if g != 0 {
			t.Fatal("ZeroGrads left nonzero gradient")
		}
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{1, 1, 1, 0, 0, 10}, 2, 3)
	var loss SoftmaxCrossEntropy
	res, err := loss.Eval(logits, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: uniform softmax => loss = ln 3.
	if math.Abs(res.PerSample[0]-math.Log(3)) > 1e-9 {
		t.Fatalf("loss[0] = %v, want ln3", res.PerSample[0])
	}
	// Row 1: nearly certain correct => loss ~ 0.
	if res.PerSample[1] > 1e-3 {
		t.Fatalf("loss[1] = %v, want ~0", res.PerSample[1])
	}
	if math.Abs(res.Mean-(res.PerSample[0]+res.PerSample[1])/2) > 1e-12 {
		t.Fatalf("mean loss mismatch")
	}
	// Probabilities sum to one per row.
	for i := 0; i < 2; i++ {
		row, _ := res.Probs.Row(i)
		s := 0.0
		for _, p := range row {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probs row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyErrors(t *testing.T) {
	var loss SoftmaxCrossEntropy
	if _, err := loss.Eval(tensor.New(2, 3), []int{0}); err == nil {
		t.Fatal("accepted wrong label count")
	}
	if _, err := loss.Eval(tensor.New(1, 3), []int{5}); err == nil {
		t.Fatal("accepted out-of-range label")
	}
	if _, err := loss.Eval(tensor.New(6), []int{0}); err == nil {
		t.Fatal("accepted 1-D logits")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{
		3, 1, 0,
		0, 5, 1,
		1, 0, 2,
		9, 0, 0,
	}, 4, 3)
	got := Accuracy(logits, []int{0, 1, 2, 1})
	if got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// Property: softmax grad rows sum to ~0 (shift invariance of cross-entropy).
func TestQuickLossGradRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, c := 1+rng.Intn(5), 2+rng.Intn(5)
		logits := tensor.Randn(rng, 0, 3, b, c)
		labels := make([]int, b)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		var loss SoftmaxCrossEntropy
		res, err := loss.Eval(logits, labels)
		if err != nil {
			return false
		}
		for i := 0; i < b; i++ {
			row, _ := res.Grad.Row(i)
			s := 0.0
			for _, v := range row {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-sample losses are non-negative and the mean matches.
func TestQuickLossNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, c := 1+rng.Intn(6), 2+rng.Intn(6)
		logits := tensor.Randn(rng, 0, 2, b, c)
		labels := make([]int, b)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		var loss SoftmaxCrossEntropy
		res, err := loss.Eval(logits, labels)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, l := range res.PerSample {
			if l < 0 {
				return false
			}
			sum += l
		}
		return math.Abs(sum/float64(b)-res.Mean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResetParamsChangesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(4, 4, rng)
	before := append([]float64(nil), d.Params()[0].Data()...)
	d.ResetParams(rand.New(rand.NewSource(2)))
	after := d.Params()[0].Data()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ResetParams did not change weights")
	}
}

func TestSoftmaxMatchesLossProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.Randn(rng, 0, 1, 3, 4)
	labels := []int{0, 1, 2}
	var loss SoftmaxCrossEntropy
	res, err := loss.Eval(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	probs := Softmax(logits)
	for i := range probs.Data() {
		if math.Abs(probs.Data()[i]-res.Probs.Data()[i]) > 1e-12 {
			t.Fatal("Softmax disagrees with loss probabilities")
		}
	}
}
