package fleetsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
)

func TestSynthStateDeterministic(t *testing.T) {
	a := SynthState(7, 3, 2, 64, nil)
	b := SynthState(7, 3, 2, 64, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coordinate %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("coordinate %d out of [-1,1): %v", i, a[i])
		}
	}
	c := SynthState(7, 3, 3, 64, nil)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("round 2 and round 3 states are identical")
	}
}

// TestFleetFederation drives a real flnet server with a fleet of synthetic-trainer clients
// piped into it: every client must finish with the final
// model and every round must aggregate the full cohort.
func TestFleetFederation(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const (
		numClients = 16
		rounds     = 3
		dim        = 32
	)
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: dim, NumState: dim}); err != nil {
		t.Fatal(err)
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:   numClients,
		Rounds:       rounds,
		Defense:      def,
		InitialState: make([]float64, dim),
		IOTimeout:    20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fleet := &Fleet{N: numClients, Dim: dim, Seed: 11, Dial: srv.Pipe, IOTimeout: 20 * time.Second}
	statsCh := make(chan *Stats, 1)
	go func() { statsCh <- fleet.Run(ctx) }()

	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != dim {
		t.Fatalf("final state has %d values, want %d", len(final), dim)
	}
	stats := <-statsCh
	if got := stats.Done.Load(); got != numClients {
		t.Fatalf("%d/%d clients received the final model (gave up %d)", got, numClients, stats.GaveUp.Load())
	}
	if got := stats.Updates.Load(); got != numClients*rounds {
		t.Fatalf("fleet wrote %d updates, want %d", got, numClients*rounds)
	}
}
