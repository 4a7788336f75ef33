package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/nn"
)

func testInfo(t *testing.T) fl.ModelInfo {
	t.Helper()
	m := model.FCNN6(40, 10, rand.New(rand.NewSource(1)))
	return fl.InfoOf(m)
}

func testModel() *nn.Model {
	return model.FCNN6(40, 10, rand.New(rand.NewSource(1)))
}

func TestBindDefaultsToPenultimate(t *testing.T) {
	d := New(7)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	layers := d.layers
	if len(layers) != 1 || layers[0] != len(info.Spans)-2 {
		t.Fatalf("private layers = %v, want [%d]", layers, len(info.Spans)-2)
	}
}

func TestBindExplicitAndNegativeLayers(t *testing.T) {
	d := NewWithLayers(7, 1, -1, 1) // duplicate 1 should collapse
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	layers := d.layers
	if len(layers) != 2 || layers[0] != 1 || layers[1] != len(info.Spans)-1 {
		t.Fatalf("private layers = %v", layers)
	}
}

func TestBindRejectsOutOfRange(t *testing.T) {
	info := testInfo(t)
	if err := NewWithLayers(7, 99).Bind(info); err == nil {
		t.Fatal("accepted layer 99")
	}
	if err := NewWithLayers(7, -99).Bind(info); err == nil {
		t.Fatal("accepted layer -99")
	}
	if err := New(7).Bind(fl.ModelInfo{}); err == nil {
		t.Fatal("accepted empty model")
	}
}

func TestObfuscationReplacesOnlyPrivateLayer(t *testing.T) {
	d := New(7)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	m := testModel()
	original := m.StateVector()
	u := &fl.Update{ClientID: 0, Round: 0, State: append([]float64(nil), original...), NumSamples: 10}
	d.BeforeUpload(0, nil, u)

	sp := info.Spans[len(info.Spans)-2]
	changedInside, changedOutside := 0, 0
	for i := range original {
		if u.State[i] != original[i] {
			if i >= sp.Offset && i < sp.Offset+sp.Len {
				changedInside++
			} else {
				changedOutside++
			}
		}
	}
	if changedOutside != 0 {
		t.Fatalf("%d values outside the private layer changed", changedOutside)
	}
	if changedInside < sp.Len/2 {
		t.Fatalf("only %d of %d private-layer values changed", changedInside, sp.Len)
	}
}

func TestPersonalizationRestoresPrivateLayer(t *testing.T) {
	d := New(7)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	m := testModel()
	trained := m.StateVector()
	sp := info.Spans[len(info.Spans)-2]

	// Client 0 uploads: private layer gets stored and obfuscated.
	u := &fl.Update{ClientID: 0, Round: 0, State: append([]float64(nil), trained...), NumSamples: 10}
	d.BeforeUpload(0, nil, u)

	// Server aggregates (here: just the one update) and broadcasts.
	global, err := d.Aggregate(0, nil, []*fl.Update{u})
	if err != nil {
		t.Fatal(err)
	}

	// Client 0 personalizes: private layer must match the trained one again.
	personalized := d.OnGlobalModel(0, 1, global)
	for i := sp.Offset; i < sp.Offset+sp.Len; i++ {
		if personalized[i] != trained[i] {
			t.Fatalf("private layer not restored at %d: %v != %v", i, personalized[i], trained[i])
		}
	}

	// A different client has no stored copy: it keeps the obfuscated values.
	other := d.OnGlobalModel(1, 1, global)
	same := 0
	for i := sp.Offset; i < sp.Offset+sp.Len; i++ {
		if other[i] == trained[i] {
			same++
		}
	}
	if same > sp.Len/10 {
		t.Fatalf("client 1 unexpectedly sees %d/%d of client 0's private values", same, sp.Len)
	}
}

// TestPersonalizedStateIsTheClientsOwn pins what OnGlobalModel may hand out:
// never a write into the shared global, a buffer per client (parallel clients
// personalize at once), and the same buffer again next round instead of a
// state-sized allocation.
func TestPersonalizedStateIsTheClientsOwn(t *testing.T) {
	d := New(3)
	m := testModel()
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		t.Fatal(err)
	}
	global := m.StateVector()
	want := append([]float64(nil), global...)
	for id := 0; id < 2; id++ {
		d.BeforeUpload(0, nil, &fl.Update{ClientID: id, State: m.StateVector()})
	}
	a, b := d.OnGlobalModel(0, 1, global), d.OnGlobalModel(1, 1, global)
	if &a[0] == &global[0] || &b[0] == &global[0] || &a[0] == &b[0] {
		t.Fatal("personalized states alias the global or each other")
	}
	if again := d.OnGlobalModel(0, 2, global); &again[0] != &a[0] {
		t.Fatal("client 0's second personalization is not built in its first one's buffer")
	}
	if allocs := testing.AllocsPerRun(5, func() { d.OnGlobalModel(1, 3, global) }); allocs != 0 {
		t.Fatalf("a steady-state OnGlobalModel makes %v allocations, want 0", allocs)
	}
	for i := range want {
		if global[i] != want[i] {
			t.Fatalf("OnGlobalModel wrote into the global state at %d", i)
		}
	}
}

func TestOnGlobalModelBeforeBindIsIdentity(t *testing.T) {
	d := New(7)
	in := []float64{1, 2, 3}
	out := d.OnGlobalModel(0, 0, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("unbound defense should be identity")
		}
	}
	u := &fl.Update{State: []float64{1, 2, 3}}
	d.BeforeUpload(0, nil, u) // must not panic before Bind
}

func TestStoredPrivate(t *testing.T) {
	d := New(7)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	p := len(info.Spans) - 2
	if d.ExportStore(0)[p] != nil {
		t.Fatal("store should start empty")
	}
	m := testModel()
	u := &fl.Update{ClientID: 3, State: m.StateVector(), NumSamples: 1}
	d.BeforeUpload(0, nil, u)
	priv := d.ExportStore(3)[p]
	if priv == nil {
		t.Fatal("private layer not stored")
	}
	sp := info.Spans[p]
	if len(priv) != sp.Len {
		t.Fatalf("stored %d values, want %d", len(priv), sp.Len)
	}
	if d.ExportStore(3)[0] != nil {
		t.Fatal("unprotected layer should not be stored")
	}
}

func TestObfuscationDeterministicPerRoundClient(t *testing.T) {
	run := func() []float64 {
		d := New(42)
		info := testInfo(t)
		if err := d.Bind(info); err != nil {
			t.Fatal(err)
		}
		m := testModel()
		u := &fl.Update{ClientID: 2, Round: 5, State: m.StateVector(), NumSamples: 1}
		d.BeforeUpload(5, nil, u)
		return u.State
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("obfuscation not deterministic for fixed seed/round/client")
		}
	}
}

func TestObfuscationDiffersAcrossRounds(t *testing.T) {
	d := New(42)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	sp := info.Spans[len(info.Spans)-2]
	m := testModel()
	u1 := &fl.Update{ClientID: 0, Round: 0, State: m.StateVector(), NumSamples: 1}
	u2 := &fl.Update{ClientID: 0, Round: 1, State: m.StateVector(), NumSamples: 1}
	d.BeforeUpload(0, nil, u1)
	d.BeforeUpload(1, nil, u2)
	same := 0
	for i := sp.Offset; i < sp.Offset+sp.Len; i++ {
		if u1.State[i] == u2.State[i] {
			same++
		}
	}
	if same > sp.Len/10 {
		t.Fatalf("rounds share %d/%d obfuscated values", same, sp.Len)
	}
}

func TestObfuscateGaussianMatchesInitScale(t *testing.T) {
	sp := nn.Span{Offset: 0, Len: 20000, InitScale: 0.3}
	state := make([]float64, 20000)
	rng := rand.New(rand.NewSource(1))
	if err := Obfuscate(state, sp, ObfuscateGaussian, rng); err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, v := range state {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(len(state))
	std := math.Sqrt(sumSq/float64(len(state)) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("obfuscated mean = %v", mean)
	}
	if math.Abs(std-0.3) > 0.01 {
		t.Fatalf("obfuscated std = %v, want 0.3", std)
	}
}

func TestObfuscateUniformBounds(t *testing.T) {
	sp := nn.Span{Offset: 2, Len: 1000, InitScale: 0.5}
	state := make([]float64, 1004)
	rng := rand.New(rand.NewSource(1))
	if err := Obfuscate(state, sp, ObfuscateUniform, rng); err != nil {
		t.Fatal(err)
	}
	if state[0] != 0 || state[1] != 0 || state[1002] != 0 {
		t.Fatal("Obfuscate touched values outside the span")
	}
	for i := 2; i < 1002; i++ {
		if state[i] < -1 || state[i] > 1 {
			t.Fatalf("uniform value %v outside [-2·0.5, 2·0.5]", state[i])
		}
	}
}

func TestObfuscateSpanBounds(t *testing.T) {
	state := make([]float64, 10)
	rng := rand.New(rand.NewSource(1))
	if err := Obfuscate(state, nn.Span{Offset: 8, Len: 5}, ObfuscateGaussian, rng); err == nil {
		t.Fatal("accepted out-of-range span")
	}
	if err := Obfuscate(state, nn.Span{Offset: -1, Len: 2}, ObfuscateGaussian, rng); err == nil {
		t.Fatal("accepted negative offset")
	}
}

func TestAggregateIsFedAvg(t *testing.T) {
	d := New(1)
	updates := []*fl.Update{
		{ClientID: 0, State: []float64{2}, NumSamples: 1},
		{ClientID: 1, State: []float64{4}, NumSamples: 1},
	}
	got, err := d.Aggregate(0, nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("aggregate = %v", got)
	}
}

func TestExportImportStore(t *testing.T) {
	d := New(7)
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	if d.ExportStore(0) != nil {
		t.Fatal("empty store should export nil")
	}
	m := testModel()
	u := &fl.Update{ClientID: 0, State: m.StateVector(), NumSamples: 1}
	d.BeforeUpload(0, nil, u)
	exported := d.ExportStore(0)
	if exported == nil {
		t.Fatal("nothing exported after upload")
	}
	p := len(info.Spans) - 2
	if len(exported[p]) != info.Spans[p].Len {
		t.Fatalf("exported layer %d has %d values", p, len(exported[p]))
	}
	// Import into a fresh defense (crash recovery) and verify
	// personalization picks the imported values up.
	d2 := New(7)
	if err := d2.Bind(info); err != nil {
		t.Fatal(err)
	}
	if err := d2.ImportStore(0, exported); err != nil {
		t.Fatal(err)
	}
	global := make([]float64, info.NumState)
	personalized := d2.OnGlobalModel(0, 1, global)
	sp := info.Spans[p]
	for i := 0; i < sp.Len; i++ {
		if personalized[sp.Offset+i] != exported[p][i] {
			t.Fatal("imported private layer not restored")
		}
	}
}

func TestImportStoreValidation(t *testing.T) {
	d := New(7)
	if err := d.ImportStore(0, map[int][]float64{0: {1}}); err == nil {
		t.Fatal("ImportStore before Bind should fail")
	}
	info := testInfo(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	if err := d.ImportStore(0, map[int][]float64{99: {1}}); err == nil {
		t.Fatal("accepted out-of-range layer")
	}
	if err := d.ImportStore(0, map[int][]float64{0: {1, 2}}); err == nil {
		t.Fatal("accepted wrong-length layer")
	}
}

func TestBindSkipsBypassablePenultimate(t *testing.T) {
	// ResNet20's penultimate span sits inside a residual block; a skip
	// connection would carry the signal around the obfuscation, so the
	// default must fall back to the classifier.
	m := model.ResNet20(3, 10, rand.New(rand.NewSource(1)))
	info := fl.InfoOf(m)
	if !info.Spans[len(info.Spans)-2].Bypassable {
		t.Fatal("ResNet20 penultimate span should be bypassable")
	}
	if info.Spans[len(info.Spans)-1].Bypassable {
		t.Fatal("ResNet20 classifier should not be bypassable")
	}
	d := New(7)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	layers := d.layers
	if len(layers) != 1 || layers[0] != len(info.Spans)-1 {
		t.Fatalf("private layers = %v, want classifier %d", layers, len(info.Spans)-1)
	}
}
