package dinar

// Cross-cutting integration tests: checkpoint/resume of a federation,
// DINAR personalization across participation gaps, and wire-format fuzzing.

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/model"
)

// TestCheckpointResume saves the global model mid-run, builds a fresh server
// from the checkpoint, and verifies the federation continues from exactly
// the saved state.
func TestCheckpointResume(t *testing.T) {
	cfg := fl.Config{
		Dataset:      "purchase100",
		Records:      400,
		Clients:      3,
		Rounds:       2,
		LocalEpochs:  1,
		BatchSize:    32,
		LearningRate: 0.1,
		Optimizer:    "sgd",
		Seed:         3,
	}
	sys, err := fl.NewSystem(cfg, noneForTest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.RunRound(ctx); err != nil {
		t.Fatal(err)
	}

	// Save mid-run.
	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	snap := &checkpoint.Snapshot{
		Dataset: "purchase100",
		Round:   sys.Server.Round(),
		State:   sys.Server.GlobalState(),
	}
	if err := checkpoint.SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}

	// Resume: a new server starts from the checkpointed state.
	loaded, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Round != 1 {
		t.Fatalf("round = %d", loaded.Round)
	}
	resumed, err := fl.NewServer(loaded.State, noneForTest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.Server.GlobalState(), resumed.GlobalState()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("resumed state diverges from the checkpoint")
		}
	}
}

// noneForTest is a minimal identity defense for integration tests.
type noneForTest struct{}

func (noneForTest) Name() string            { return "none" }
func (noneForTest) Bind(fl.ModelInfo) error { return nil }
func (noneForTest) OnGlobalModel(_, _ int, g []float64) []float64 {
	return append([]float64(nil), g...)
}
func (noneForTest) BeforeUpload(int, []float64, *fl.Update) {}
func (noneForTest) Aggregate(_ int, _ []float64, u []*fl.Update) ([]float64, error) {
	return fl.FedAvg(u)
}

// TestDINARPrivateStoreSurvivesCheckpoint exports a client's private store,
// persists it, and restores it into a fresh DINAR instance — the crash
// recovery path for θᵖ*, which exists nowhere but the client.
func TestDINARPrivateStoreSurvivesCheckpoint(t *testing.T) {
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(7)
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		t.Fatal(err)
	}
	u := &fl.Update{ClientID: 2, State: m.StateVector(), NumSamples: 10}
	d.BeforeUpload(0, nil, u)

	exported := d.ExportStore(2)
	if exported == nil {
		t.Fatal("nothing to export")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "private.ckpt")
	if err := checkpoint.SavePrivateFile(path, &checkpoint.PrivateLayers{
		ClientID: 2,
		Layers:   exported,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.LoadPrivateFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh := core.New(7)
	if err := fresh.Bind(fl.InfoOf(m)); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportStore(loaded.ClientID, loaded.Layers); err != nil {
		t.Fatal(err)
	}
	// Personalization must restore the recovered layer.
	global := make([]float64, m.NumState())
	personalized := fresh.OnGlobalModel(2, 1, global)
	for p, layer := range exported {
		sp := m.Spans()[p]
		if !slices.Equal(personalized[sp.Offset:sp.Offset+sp.Len], layer) {
			t.Fatalf("recovered private layer %d not restored", p)
		}
	}
}

// TestDINARPersonalizationAcrossParticipationGaps verifies a client that
// skips rounds keeps its private layer: the store is keyed per client and
// only overwritten when that client uploads.
func TestDINARPersonalizationAcrossParticipationGaps(t *testing.T) {
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(7)
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		t.Fatal(err)
	}

	// Round 0: client 0 participates.
	u0 := &fl.Update{ClientID: 0, State: m.StateVector(), NumSamples: 10}
	d.BeforeUpload(0, nil, u0)
	saved := d.ExportStore(0)

	// Rounds 1..3: only client 1 participates.
	for r := 1; r <= 3; r++ {
		u := &fl.Update{ClientID: 1, State: m.StateVector(), NumSamples: 10}
		d.BeforeUpload(r, nil, u)
	}

	// Round 4: client 0 returns — its stored layer is untouched.
	if after := d.ExportStore(0); len(saved) == 0 || !reflect.DeepEqual(saved, after) {
		t.Fatal("private layer changed while the client was absent")
	}
	global := make([]float64, m.NumState())
	personalized := d.OnGlobalModel(0, 4, global)
	for p, layer := range saved {
		sp := m.Spans()[p]
		if !slices.Equal(personalized[sp.Offset:sp.Offset+sp.Len], layer) {
			t.Fatal("personalization after a gap did not restore the stored layer")
		}
	}
}

// TestQuickWireFuzz round-trips randomized protocol messages through the
// wire codec.
func TestQuickWireFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msg := &flnet.Message{
			Kind:       flnet.Kind(1 + rng.Intn(5)),
			ClientID:   rng.Intn(1000),
			Round:      rng.Intn(1000),
			NumSamples: rng.Intn(100000),
			Err:        "",
		}
		// A Hello carries no state section; every other kind may.
		if msg.Kind != flnet.KindHello {
			msg.State = make([]float64, rng.Intn(256))
			for i := range msg.State {
				msg.State[i] = rng.NormFloat64()
			}
		}
		var buf bytes.Buffer
		if err := flnet.WriteMessage(&buf, msg); err != nil {
			return false
		}
		got, err := flnet.ReadMessage(&buf)
		if err != nil {
			return false
		}
		if got.Kind != msg.Kind || got.ClientID != msg.ClientID ||
			got.Round != msg.Round || got.NumSamples != msg.NumSamples {
			return false
		}
		if len(got.State) != len(msg.State) {
			return false
		}
		for i := range msg.State {
			if got.State[i] != msg.State[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
