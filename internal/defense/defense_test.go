package defense

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
)

func testInfoAndState(t *testing.T) (fl.ModelInfo, []float64) {
	t.Helper()
	m := model.FCNN6(30, 8, rand.New(rand.NewSource(1)))
	return fl.InfoOf(m), m.StateVector()
}

func trainedLike(global []float64, shift float64) []float64 {
	out := append([]float64(nil), global...)
	for i := range out {
		out[i] += shift * math.Sin(float64(i))
	}
	return out
}

func TestRegistry(t *testing.T) {
	for _, name := range StandardNames {
		d, err := New(name, 1, 4)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, d.Name())
		}
	}
	if _, err := New("bogus", 1, 4); err == nil {
		t.Fatal("accepted unknown defense")
	}
}

func TestNoneIsIdentity(t *testing.T) {
	d := NewNone()
	info, state := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	out := d.OnGlobalModel(0, 0, state)
	for i := range state {
		if out[i] != state[i] {
			t.Fatal("OnGlobalModel not identity")
		}
	}
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), state...), NumSamples: 1}
	d.BeforeUpload(0, state, u)
	for i := range state {
		if u.State[i] != state[i] {
			t.Fatal("BeforeUpload not identity")
		}
	}
}

func TestLDPPerturbsWithinCoverage(t *testing.T) {
	d := NewLDP(7)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	trained := trainedLike(global, 0.01)
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
	d.BeforeUpload(0, global, u)

	// Parameter prefix must change; the buffer suffix must not.
	changed := 0
	for i := 0; i < info.NumParams; i++ {
		if u.State[i] != trained[i] {
			changed++
		}
	}
	if changed < info.NumParams/2 {
		t.Fatalf("LDP changed only %d/%d params", changed, info.NumParams)
	}
	for i := info.NumParams; i < info.NumState; i++ {
		if u.State[i] != trained[i] {
			t.Fatal("LDP touched normalization buffers")
		}
	}
}

func TestLDPNoiseScalesWithBudget(t *testing.T) {
	info, global := testInfoAndState(t)
	trained := trainedLike(global, 0.01)

	dist := func(eps float64) float64 {
		d := NewLDPWithBudget(7, eps)
		if err := d.Bind(info); err != nil {
			t.Fatal(err)
		}
		u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
		d.BeforeUpload(0, global, u)
		s := 0.0
		for i := 0; i < info.NumParams; i++ {
			diff := u.State[i] - global[i]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	small := dist(0.05) // tight budget -> huge noise
	large := dist(10)   // loose budget -> small noise
	if small <= large {
		t.Fatalf("eps=0.05 perturbation %v should exceed eps=10 perturbation %v", small, large)
	}
}

func TestWDPNoiseSmallerThanLDP(t *testing.T) {
	info, global := testInfoAndState(t)
	trained := trainedLike(global, 0.01)

	apply := func(d fl.Defense) float64 {
		if err := d.Bind(info); err != nil {
			t.Fatal(err)
		}
		u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
		d.BeforeUpload(0, global, u)
		s := 0.0
		for i := 0; i < info.NumParams; i++ {
			diff := u.State[i] - trained[i]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	wdp := apply(NewWDP(7))
	ldp := apply(NewLDP(7))
	if wdp >= ldp {
		t.Fatalf("WDP perturbation %v should be below LDP %v", wdp, ldp)
	}
}

func TestCDPPerturbsAggregateOnly(t *testing.T) {
	d := NewCDP(7)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	// Client side is untouched.
	trained := trainedLike(global, 0.01)
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
	d.BeforeUpload(0, global, u)
	for i := range trained {
		if u.State[i] != trained[i] {
			t.Fatal("CDP should not modify client uploads")
		}
	}
	// Server side perturbs the FedAvg result.
	u2 := &fl.Update{ClientID: 1, State: trainedLike(global, 0.02), NumSamples: 1}
	agg, err := d.Aggregate(0, global, []*fl.Update{u, u2})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fl.FedAvg([]*fl.Update{u, u2})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < info.NumParams; i++ {
		if agg[i] != plain[i] {
			diff++
		}
	}
	if diff < info.NumParams/2 {
		t.Fatalf("CDP aggregate changed only %d/%d params", diff, info.NumParams)
	}
	for i := info.NumParams; i < info.NumState; i++ {
		if math.Abs(agg[i]-plain[i]) > 1e-12 {
			t.Fatal("CDP touched buffer aggregate")
		}
	}
}

func TestGCSparsifiesUpdate(t *testing.T) {
	d := NewGC()
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	trained := trainedLike(global, 0.01)
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
	d.BeforeUpload(0, global, u)

	nonZero := 0
	for i := 0; i < info.NumParams; i++ {
		if u.State[i] != global[i] {
			nonZero++
		}
	}
	want := int(float64(info.NumParams) * d.Ratio)
	// Allow slack for ties at the threshold.
	if nonZero > want+want/10+1 {
		t.Fatalf("GC kept %d coordinates, want <= ~%d", nonZero, want)
	}
	if nonZero == 0 {
		t.Fatal("GC zeroed the whole update")
	}
}

func TestGCKeepsLargestCoordinates(t *testing.T) {
	d := NewGC()
	d.Ratio = 1e-9 // keep is clamped to exactly one coordinate
	m := model.FCNN6(4, 2, rand.New(rand.NewSource(1)))
	info := fl.InfoOf(m)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	global := make([]float64, info.NumState)
	state := make([]float64, info.NumState)
	// Put one dominant coordinate in the params prefix.
	state[3] = 100
	state[5] = 0.001
	u := &fl.Update{ClientID: 0, State: state, NumSamples: 1}
	d.BeforeUpload(0, global, u)
	if u.State[3] != 100 {
		t.Fatal("GC dropped the largest coordinate")
	}
	if u.State[5] != 0 {
		t.Fatal("GC kept a tiny coordinate over larger ones")
	}
}

func TestSAMasksCancelInAggregate(t *testing.T) {
	const clients = 4
	d := NewSA(7, clients)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	var updates []*fl.Update
	var plain []*fl.Update
	for c := 0; c < clients; c++ {
		trained := trainedLike(global, 0.01*float64(c+1))
		plain = append(plain, &fl.Update{ClientID: c, State: append([]float64(nil), trained...), NumSamples: 10 + c})
		u := &fl.Update{ClientID: c, State: append([]float64(nil), trained...), NumSamples: 10 + c}
		d.BeforeUpload(0, global, u)
		updates = append(updates, u)
	}
	agg, err := d.Aggregate(0, global, updates)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fl.FedAvg(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(agg[i]-want[i]) > 1e-6 {
			t.Fatalf("masked aggregate diverges at %d: %v vs %v", i, agg[i], want[i])
		}
	}
}

func TestSAUploadsLookRandom(t *testing.T) {
	const clients = 3
	d := NewSA(7, clients)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	trained := trainedLike(global, 0.01)
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 10}
	d.BeforeUpload(0, global, u)
	// Masked upload should be far from the raw state (masks have sigma 10).
	var dist float64
	for i := range trained {
		diff := u.State[i] - trained[i]
		dist += diff * diff
	}
	rms := math.Sqrt(dist / float64(len(trained)))
	if rms < 1 {
		t.Fatalf("masked upload too close to the raw state (rms %v)", rms)
	}
}

func TestSAErrors(t *testing.T) {
	info, _ := testInfoAndState(t)
	if err := NewSA(7, 1).Bind(info); err == nil {
		t.Fatal("SA accepted a single-client cohort")
	}
	d := NewSA(7, 3)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Aggregate(0, nil, []*fl.Update{{State: []float64{1}, NumSamples: 1}}); err == nil {
		t.Fatal("SA accepted a partial cohort (dropout)")
	}
}

func TestMeterAccounting(t *testing.T) {
	d := NewLDP(7)
	meter := metrics.NewCostMeter()
	d.SetMeter(meter)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	u := &fl.Update{ClientID: 0, State: trainedLike(global, 0.01), NumSamples: 1}
	d.BeforeUpload(0, global, u)
	if meter.Report().DefenseBytes == 0 {
		t.Fatal("LDP did not account defense memory")
	}
}

func TestClipNorm(t *testing.T) {
	v := []float64{3, 4}
	norm := clipNorm(v, 2.5)
	if norm != 5 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if math.Abs(math.Hypot(v[0], v[1])-2.5) > 1e-12 {
		t.Fatalf("post-clip norm = %v", math.Hypot(v[0], v[1]))
	}
	w := []float64{0.3, 0.4}
	clipNorm(w, 2.5)
	if w[0] != 0.3 || w[1] != 0.4 {
		t.Fatal("clipNorm modified an in-bound vector")
	}
}

func TestGaussianSigmaFormula(t *testing.T) {
	got := gaussianSigma(1, 2.2, 1e-5)
	want := math.Sqrt(2*math.Log(1.25/1e-5)) / 2.2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", got, want)
	}
}

func TestDeltaOfErrors(t *testing.T) {
	if _, err := deltaOf([]float64{1}, []float64{1, 2}, 2); err == nil {
		t.Fatal("accepted short state")
	}
	d, err := deltaOf([]float64{3, 5}, []float64{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 2 || d[1] != 3 {
		t.Fatalf("delta = %v", d)
	}
}

// TestClientHooksFailClosed plants a state shorter than the model's
// parameters: each client-side mechanism must refuse it with deltaOf's error
// rather than upload the raw update.
func TestClientHooksFailClosed(t *testing.T) {
	info, global := testInfoAndState(t)
	for _, d := range []fl.Defense{NewLDP(7), NewWDP(7), NewDPFedSAM(7), NewGC()} {
		if err := d.Bind(info); err != nil {
			t.Fatal(err)
		}
		u := &fl.Update{State: global[:info.NumParams-1], NumSamples: 1}
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || !strings.Contains(err.Error(), "shorter than params") {
					t.Errorf("%T: BeforeUpload of a short state panicked with %v, want deltaOf's error", d, err)
				}
			}()
			d.BeforeUpload(0, global, u)
		}()
	}
}

// TestGCExactTopKWithTies pins GC's tie rule on top of the shared selection
// kernel: everything above the k-th largest magnitude survives, and of the
// coordinates tied with it only the lowest-indexed, so exactly `keep` do.
func TestGCExactTopKWithTies(t *testing.T) {
	d := NewGC()
	d.Ratio = 0.5
	m := model.FCNN6(4, 2, rand.New(rand.NewSource(1)))
	info := fl.InfoOf(m)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	n := info.NumParams
	keep := int(float64(n) * d.Ratio)
	global := make([]float64, info.NumState)
	state := make([]float64, info.NumState)
	big := map[int]bool{n - 1: true, n / 2: true, 2: true}
	for i := 0; i < n; i++ {
		state[i] = float64(1 - 2*(i%2)) // ±1: one big tie
		if big[i] {
			state[i] = -2
		}
	}
	u := &fl.Update{ClientID: 0, State: state, NumSamples: 1}
	d.BeforeUpload(0, global, u)
	ties := keep - len(big)
	for i := 0; i < n; i++ {
		want := 0.0
		switch {
		case big[i]:
			want = -2
		case ties > 0:
			want = float64(1 - 2*(i%2))
			ties--
		}
		if u.State[i] != want {
			t.Fatalf("coordinate %d = %v, want %v (keep %d of %d)", i, u.State[i], want, keep, n)
		}
	}
}

func TestDPFedSAMPerturbsUpdate(t *testing.T) {
	d := NewDPFedSAM(7)
	info, global := testInfoAndState(t)
	if err := d.Bind(info); err != nil {
		t.Fatal(err)
	}
	trained := trainedLike(global, 0.01)
	u := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
	d.BeforeUpload(0, global, u)
	changed := 0
	for i := 0; i < info.NumParams; i++ {
		if u.State[i] != trained[i] {
			changed++
		}
	}
	if changed < info.NumParams/2 {
		t.Fatalf("dpfedsam changed only %d/%d params", changed, info.NumParams)
	}
	// Milder than LDP.
	dist := func(state []float64) float64 {
		s := 0.0
		for i := 0; i < info.NumParams; i++ {
			diff := state[i] - trained[i]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	sam := dist(u.State)
	ldp := NewLDP(7)
	if err := ldp.Bind(info); err != nil {
		t.Fatal(err)
	}
	u2 := &fl.Update{ClientID: 0, State: append([]float64(nil), trained...), NumSamples: 1}
	ldp.BeforeUpload(0, global, u2)
	if sam >= dist(u2.State) {
		t.Fatalf("dpfedsam noise %v should be below LDP %v", sam, dist(u2.State))
	}
}

func TestExtendedRegistry(t *testing.T) {
	d, err := New("dpfedsam", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "dpfedsam" {
		t.Fatalf("name = %q", d.Name())
	}
	if len(ExtendedNames) != len(StandardNames)+1 {
		t.Fatalf("ExtendedNames = %v", ExtendedNames)
	}
}

// overlaps reports whether two slices share any memory (an address-range
// check: one of them then holds the other's first element).
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for i := range a {
		if &a[i] == &b[0] {
			return true
		}
	}
	for i := range b {
		if &b[i] == &a[0] {
			return true
		}
	}
	return false
}

// TestAggregateResultOwnsItsMemory holds every aggregation rule, materialized
// and streaming, to what fl.Server now relies on: the server publishes the
// result uncopied while its recycler takes the updates' buffers back into the
// frame pool, so a result that is (or shares memory with) an update's State
// or the previous global would be overwritten under everyone reading it.
func TestAggregateResultOwnsItsMemory(t *testing.T) {
	info, prev := testInfoAndState(t)
	const clients = 5
	rules := map[string]func() (fl.Defense, error){}
	for _, name := range ExtendedNames {
		rules[name] = func() (fl.Defense, error) { return New(name, 1, clients) }
	}
	for _, agg := range fl.AggregatorNames[1:] { // every robust rule, over the baseline
		rules["none+"+agg] = func() (fl.Defense, error) { return fl.WithAggregator(NewNone(), agg, 1) }
	}
	for name, build := range rules {
		def, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := def.Bind(info); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		updates := make([]*fl.Update, clients)
		for i := range updates {
			updates[i] = &fl.Update{ClientID: i, State: trainedLike(prev, 0.01*float64(i+1)), NumSamples: 10 + i}
		}
		check := func(path string, got []float64, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, path, err)
			}
			if overlaps(got, prev) {
				t.Errorf("%s %s: the result shares memory with prevGlobal", name, path)
			}
			for _, u := range updates {
				if overlaps(got, u.State) {
					t.Errorf("%s %s: the result shares memory with client %d's update", name, path, u.ClientID)
				}
			}
		}
		got, err := def.Aggregate(0, prev, updates)
		check("materialized", got, err)
		if agg := fl.StreamingOf(def); agg != nil {
			agg.Begin(0, prev)
			for _, u := range updates {
				if err := agg.Fold(u); err != nil {
					t.Fatalf("%s streaming fold: %v", name, err)
				}
			}
			got, err := agg.Finalize()
			check("streaming", got, err)
		}
	}
}
