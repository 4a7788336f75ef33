package bench

import (
	"context"
	"testing"
	"time"

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
func benchRoundThroughput(b *testing.B) {
	const (
		numClients = 64
		sampleSize = 16
		minClients = 8
		dim        = 4096
	)
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: dim, NumState: dim}); err != nil {
		b.Fatal(err)
	}
	mem := flnet.ListenMem(numClients)
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:   numClients,
		MinClients:   minClients,
		SampleSize:   sampleSize,
		SampleSeed:   11,
		Streaming:    true,
		Rounds:       b.N,
		Defense:      def,
		InitialState: make([]float64, dim),
		Listener:     mem,
		IOTimeout:    2 * time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	fleet := &fleetsim.Fleet{
		N: numClients, Dim: dim, Seed: 3,
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
	if len(final) != dim {
		b.Fatalf("final state has %d values, want %d", len(final), dim)
	}
	if got := int(stats.Updates.Load()); got < b.N*minClients {
		b.Fatalf("fleet wrote %d updates over %d rounds, want at least %d", got, b.N, b.N*minClients)
	}
}
