package bench

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
)

// benchRoundThroughput times the federation round loop end to end: a
// sampled, streaming flnet server over the in-memory listener with a
// fleetsim fleet (flnet.RunClient sessions over synthetic trainers)
// answering every broadcast. One benchmark op is one full round
// (broadcast, cohort uploads, streamed aggregation), so ns/op is the
// server's round latency and 1e9/ns_per_op its round throughput. The
// federation runs b.N rounds in one piece; fleet registration happens once
// per calibration run and is amortized.
func benchRoundThroughput(b *testing.B) { sampledFederation(b, flnet.ServerConfig{}) }

// sampledFederation runs b.N rounds of that federation at wireDim, with
// whatever codec offer wire carries, inside the timer.
func sampledFederation(b *testing.B, wire flnet.ServerConfig) {
	const (
		numClients = 64
		sampleSize = 16
		minClients = 8
	)
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: wireDim, NumState: wireDim}); err != nil {
		b.Fatal(err)
	}
	mem := flnet.ListenMem(numClients)
	cfg := wire
	cfg.NumClients, cfg.MinClients, cfg.SampleSize, cfg.SampleSeed = numClients, minClients, sampleSize, 11
	cfg.Streaming, cfg.Rounds, cfg.Defense = true, b.N, def
	cfg.InitialState, cfg.Listener, cfg.IOTimeout = make([]float64, wireDim), mem, 2*time.Minute
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	fleet := &fleetsim.Fleet{
		N: numClients, Dim: wireDim, Seed: 3,
		Dial: mem.Dial, IOTimeout: 2 * time.Minute,
	}
	statsCh := make(chan *fleetsim.Stats, 1)
	go func() { statsCh <- fleet.Run(ctx) }()

	b.ReportAllocs()
	b.ResetTimer()
	final, err := srv.Run(ctx)
	b.StopTimer()
	stats := <-statsCh
	if err != nil {
		b.Fatal(err)
	}
	if len(final) != wireDim {
		b.Fatalf("final state has %d values, want %d", len(final), wireDim)
	}
	if got := int(stats.Updates.Load()); got < b.N*minClients {
		b.Fatalf("fleet wrote %d updates over %d rounds, want at least %d", got, b.N, b.N*minClients)
	}
}

// benchClientRound times one fl.Client.RunRound of the round benchmark's
// FCNN6 rows under DINAR: personalize, install, one epoch, build and
// obfuscate the upload. B/op is what the entry is for — the client owns its
// upload, personalization and batch buffers, so a steady-state round makes
// per-batch loss results and nothing state-sized.
func benchClientRound(b *testing.B) {
	sys, err := fcnn6System()
	if err != nil {
		b.Fatal(err)
	}
	client, global := sys.Clients[0], sys.Server.GlobalState()
	round := func(r int) {
		if _, err := client.RunRound(r, global, sys.Defense); err != nil {
			b.Fatal(err)
		}
	}
	round(0) // DINAR has a private layer, hence a personalized buffer, from round 1 on
	round(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(2 + i)
	}
}

// benchCheckpointSave times one durable checkpoint.SaveFile (rotation and
// both fsyncs included) of a snapshot shaped like the round benchmark's
// lossless row: the global state and the wire section's canonical broadcast
// (one shared slice there too) at FCNN6's dimension.
func benchCheckpointSave(b *testing.B) {
	state := fleetsim.SynthState(17, 1, 1, quantDim, nil)
	dir, err := os.MkdirTemp("", "dinar-bench-ckpt")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := &checkpoint.Snapshot{
		Dataset: "purchase100", Round: 2, State: state,
		Wire: &checkpoint.WireState{Compress: true, Delta: true, BcastRound: 2, Bcast: state},
	}
	path := filepath.Join(dir, "fed.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkpoint.SaveFile(path, snap); err != nil {
			b.Fatal(err)
		}
	}
}
