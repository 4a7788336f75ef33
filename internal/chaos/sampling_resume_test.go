package chaos

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
)

// sampledBed is one sampled in-memory federation: server + synthetic fleet
// piped into it. start() drives both to completion.
type sampledBed struct {
	srv   *flnet.Server
	fleet *fleetsim.Fleet
}

func newSampledBed(t *testing.T, cfg flnet.ServerConfig, fleet *fleetsim.Fleet) *sampledBed {
	t.Helper()
	dim := len(cfg.InitialState)
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: dim, NumState: dim}); err != nil {
		t.Fatal(err)
	}
	cfg.Defense = def
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Dial = srv.Pipe
	return &sampledBed{srv: srv, fleet: fleet}
}

// start launches the fleet and the server; the returned channels deliver
// the fleet's stats and the server's (state, error) once each finishes.
func (b *sampledBed) start(ctx context.Context) (<-chan *fleetsim.Stats, <-chan error) {
	statsCh := make(chan *fleetsim.Stats, 1)
	errCh := make(chan error, 1)
	go func() { statsCh <- b.fleet.Run(ctx) }()
	go func() {
		_, err := b.srv.Run(ctx)
		errCh <- err
	}()
	return statsCh, errCh
}

// TestSampledCohortResumeIdentity is the crash/resume half of the sampling
// property test: the cohort draw is a pure function of (seed, round,
// membership), so a federation drained mid-run and resumed from its
// checkpoint — with the sampling seed left unset, exercising checkpoint
// seed adoption — must draw bit-identical cohorts round for round with an
// uninterrupted federation at the same seed.
func TestSampledCohortResumeIdentity(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	const (
		numClients = 24
		sampleSize = 8
		rounds     = 8
		dim        = 16
		seed       = 99
	)
	base := func() flnet.ServerConfig {
		return flnet.ServerConfig{
			NumClients:   numClients,
			MinClients:   sampleSize,
			SampleSize:   sampleSize,
			SampleSeed:   seed,
			Rounds:       rounds,
			InitialState: make([]float64, dim),
			IOTimeout:    30 * time.Second,
		}
	}
	// The think-time jitter paces rounds to tens of milliseconds so the
	// drain below reliably lands mid-federation instead of after it.
	newFleet := func() *fleetsim.Fleet {
		return &fleetsim.Fleet{
			N: numClients, Dim: dim, Seed: 23,
			DelaySeed: 31, MaxDelay: 30 * time.Millisecond,
			IOTimeout: 30 * time.Second,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Reference: one uninterrupted federation.
	ref := newSampledBed(t, base(), newFleet())
	refStats, refErr := ref.start(ctx)
	if err := <-refErr; err != nil {
		t.Fatalf("reference run: %v", err)
	}
	<-refStats
	want := make(map[int][]int, rounds)
	for _, r := range ref.srv.Reports() {
		want[r.Round] = r.Sampled
	}
	if len(want) != rounds {
		t.Fatalf("reference run produced %d reports, want %d", len(want), rounds)
	}

	// Interrupted: same config plus a checkpoint; drain once two rounds
	// are durably recorded.
	ckpt := filepath.Join(t.TempDir(), "global.ckpt")
	cfg := base()
	cfg.CheckpointPath = ckpt
	first := newSampledBed(t, cfg, newFleet())
	firstStats, firstErr := first.start(ctx)
	waitCheckpointRound(t, first.srv, 2)
	if err := first.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-firstErr; !errors.Is(err, flnet.ErrDraining) {
		t.Fatalf("drained run returned %v, want ErrDraining", err)
	}
	<-firstStats
	got := make(map[int][]int, rounds)
	for _, r := range first.srv.Reports() {
		got[r.Round] = r.Sampled
	}

	// Resume: SampleSeed deliberately unset — the server must adopt the
	// checkpointed seed, or every remaining cohort would silently differ.
	cfg = base()
	cfg.CheckpointPath = ckpt
	cfg.SampleSeed = 0
	second := newSampledBed(t, cfg, newFleet())
	start := second.srv.StartRound()
	if start < 2 || start >= rounds {
		t.Fatalf("resumed at round %d, want a mid-federation resume in [2, %d)", start, rounds)
	}
	secondStats, secondErr := second.start(ctx)
	if err := <-secondErr; err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	<-secondStats
	for _, r := range second.srv.Reports() {
		got[r.Round] = r.Sampled
	}

	for round := 0; round < rounds; round++ {
		w, g := want[round], got[round]
		if g == nil {
			t.Fatalf("round %d never completed across drain + resume", round)
		}
		if len(w) != len(g) {
			t.Fatalf("round %d: cohort sizes differ: %v vs %v", round, w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("round %d: cohorts diverge at position %d: uninterrupted %v, drain+resume %v",
					round, i, w, g)
			}
		}
	}
}

// TestQuarantinedClientNeverResampled is the quarantine half of the
// sampling property test: a client struck off by the Byzantine screen must
// never appear in a later round's cohort while its quarantine lasts. The
// poisoner is chosen as the round-0 draw's first pick, so it is sampled
// exactly once — the round that earns its strike — and the federation
// still completes every round on the quorum fallback.
func TestQuarantinedClientNeverResampled(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	const (
		numClients = 12
		sampleSize = 8
		rounds     = 6
		dim        = 8
		seed       = 7
	)
	ids := make([]int, numClients)
	for i := range ids {
		ids[i] = i
	}
	poisoner := flnet.SampleOrder(seed, 0, ids)[0]

	bed := newSampledBed(t, flnet.ServerConfig{
		NumClients:   numClients,
		MinClients:   sampleSize - 2,
		SampleSize:   sampleSize,
		SampleSeed:   seed,
		Rounds:       rounds,
		InitialState: make([]float64, dim),
		IOTimeout:    30 * time.Second,
		// One strike (the default) quarantines; the penalty outlasts the
		// whole federation so any reappearance is a property violation.
		Screen: fl.ScreenConfig{QuarantineRounds: 100},
	}, &fleetsim.Fleet{
		N: numClients, Dim: dim, Seed: 5,
		IOTimeout: 30 * time.Second,
		Mutate: func(id, round int, state []float64) {
			if id == poisoner {
				state[0] = math.NaN()
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	statsCh, errCh := bed.start(ctx)
	if err := <-errCh; err != nil {
		t.Fatalf("server run: %v", err)
	}
	<-statsCh

	final := bed.srv.Reports()
	if len(final) != rounds {
		t.Fatalf("%d round reports, want %d", len(final), rounds)
	}
	struck := -1
	for _, r := range final {
		for _, id := range r.Sampled {
			if id != poisoner {
				continue
			}
			if struck >= 0 {
				t.Fatalf("client %d sampled in round %d after its round-%d strike", poisoner, r.Round, struck)
			}
			struck = r.Round
		}
		for _, id := range r.Participants {
			if id == poisoner && r.Round > struck && struck >= 0 {
				t.Fatalf("quarantined client %d aggregated in round %d", poisoner, r.Round)
			}
		}
	}
	if struck != 0 {
		t.Fatalf("poisoner %d heads the round-0 draw by construction, but was first sampled in round %d", poisoner, struck)
	}
}
