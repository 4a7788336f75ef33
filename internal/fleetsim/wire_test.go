package fleetsim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
)

// wireServerConfig builds the standard config the wire tests drive: a
// streaming sampled-free federation with the codec knobs passed through.
func wireServerConfig(numClients, rounds, dim int, ln *flnet.MemListener) flnet.ServerConfig {
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: dim, NumState: dim}); err != nil {
		panic(err)
	}
	return flnet.ServerConfig{
		NumClients:   numClients,
		Rounds:       rounds,
		Defense:      def,
		InitialState: make([]float64, dim),
		Listener:     ln,
		Streaming:    true,
		IOTimeout:    20 * time.Second,
	}
}

// runWireFederation drives one fleet/server pair to completion and returns
// the final state plus fleet stats.
func runWireFederation(t *testing.T, cfg flnet.ServerConfig, fleet *Fleet) ([]float64, *Stats) {
	t.Helper()
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	statsCh := make(chan *Stats, 1)
	go func() { statsCh <- fleet.Run(ctx) }()
	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := <-statsCh
	if got := stats.Done.Load(); got != int64(fleet.N) {
		t.Fatalf("%d/%d clients received the final model (gave up %d)", got, fleet.N, stats.GaveUp.Load())
	}
	return final, stats
}

// TestWireFullCodecFederation runs the fleet against a server offering the
// full codec stack: every client negotiates it (the shipping client
// advertises everything), every round aggregates the whole fleet, and the
// offered label shows on /healthz. The capability-subset and wrong-version
// peers, which no shipping client is, are hand-written Hellos in
// flnet's TestWireNegotiationByHand and TestHelloVersionValidated.
func TestWireFullCodecFederation(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const (
		numClients = 8
		rounds     = 3
		dim        = 64
	)
	ln := flnet.ListenMem(numClients)
	cfg := wireServerConfig(numClients, rounds, dim, ln)
	cfg.Compress = true
	cfg.Quantize = "int8"
	cfg.TopK = 0.5
	cfg.Delta = true
	cfg.QuantSeed = 5
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Health().Wire, "binary+flate+int8+topk+delta"; got != want {
		t.Fatalf("Health().Wire = %q, want %q", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fleet := &Fleet{N: numClients, Dim: dim, Seed: 21, Dial: ln.Dial, IOTimeout: 20 * time.Second}
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

// TestWireBytesReduction is the codec stack's acceptance criterion: with
// compression, int8 quantization, and delta broadcasts negotiated, the
// bytes moved per federation round must drop at least 4x against a
// session that negotiated no payload codec (raw float64 frames) at the same
// scale.
func TestWireBytesReduction(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const (
		numClients = 16
		rounds     = 8
		dim        = 2048
	)
	run := func(coded bool) int64 {
		ln := flnet.ListenMem(numClients)
		cfg := wireServerConfig(numClients, rounds, dim, ln)
		fleet := &Fleet{N: numClients, Dim: dim, Seed: 9, Dial: ln.Dial, IOTimeout: 20 * time.Second}
		if coded {
			cfg.Compress = true
			cfg.Quantize = "int8"
			cfg.Delta = true
			cfg.QuantSeed = 3
		}
		// Both ends share the in-process counters, so the tx delta alone
		// counts every frame exactly once.
		txBefore, _ := flnet.WireBytesTotals()
		runWireFederation(t, cfg, fleet)
		txAfter, _ := flnet.WireBytesTotals()
		return txAfter - txBefore
	}

	plainBytes := run(false)
	codedBytes := run(true)
	t.Logf("codec-free: %d bytes, coded: %d bytes (%.1fx reduction over %d rounds)",
		plainBytes, codedBytes, float64(plainBytes)/float64(codedBytes), rounds)
	if codedBytes <= 0 || plainBytes < 4*codedBytes {
		t.Fatalf("coded transport moved %d bytes vs %d codec-free; want at least a 4x reduction", codedBytes, plainBytes)
	}
}

// TestWireQuantSeedCheckpointResume proves the quantizer seed rides the
// checkpoint chain: a resumed server must adopt the recorded seed when the
// config leaves it unset, must refuse a conflicting one, and must finish
// the remaining rounds with codecs on.
func TestWireQuantSeedCheckpointResume(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const (
		numClients = 6
		dim        = 48
		seed       = 5
	)
	path := filepath.Join(t.TempDir(), "wire.ckpt")

	ln := flnet.ListenMem(numClients)
	cfg := wireServerConfig(numClients, 2, dim, ln)
	cfg.Compress = true
	cfg.Quantize = "int8"
	cfg.Delta = true
	cfg.QuantSeed = seed
	cfg.CheckpointPath = path
	fleet := &Fleet{N: numClients, Dim: dim, Seed: 31, Dial: ln.Dial, IOTimeout: 20 * time.Second}
	runWireFederation(t, cfg, fleet)

	snap, _, err := checkpoint.LoadLatestValid(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Wire == nil {
		t.Fatal("checkpoint carries no wire state")
	}
	if snap.Wire.QuantSeed != seed || snap.Wire.Quantize != "int8" || !snap.Wire.Compress || !snap.Wire.Delta {
		t.Fatalf("checkpoint wire state = %+v", *snap.Wire)
	}
	if snap.Wire.BcastRound < 0 || len(snap.Wire.Bcast) != dim {
		t.Fatalf("checkpoint broadcast anchor = round %d, %d values", snap.Wire.BcastRound, len(snap.Wire.Bcast))
	}

	// A conflicting seed must be refused before any client connects.
	conflict := wireServerConfig(numClients, 4, dim, flnet.ListenMem(numClients))
	conflict.Quantize = "int8"
	conflict.QuantSeed = seed + 1
	conflict.CheckpointPath = path
	if _, err := flnet.NewServer(conflict); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("conflicting quant seed accepted: %v", err)
	}

	// Seed left unset: the resumed server adopts the recorded one and the
	// federation completes its remaining rounds quantized.
	ln2 := flnet.ListenMem(numClients)
	resume := wireServerConfig(numClients, 4, dim, ln2)
	resume.Compress = true
	resume.Quantize = "int8"
	resume.Delta = true
	resume.QuantSeed = 0
	resume.CheckpointPath = path
	srv, err := flnet.NewServer(resume)
	if err != nil {
		t.Fatal(err)
	}
	if srv.StartRound() != 2 {
		t.Fatalf("resumed at round %d, want 2", srv.StartRound())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fleet2 := &Fleet{N: numClients, Dim: dim, Seed: 31, Dial: ln2.Dial, IOTimeout: 20 * time.Second}
	statsCh := make(chan *Stats, 1)
	go func() { statsCh <- fleet2.Run(ctx) }()
	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != dim {
		t.Fatalf("final state has %d values, want %d", len(final), dim)
	}
	if stats := <-statsCh; stats.Done.Load() != numClients {
		t.Fatalf("%d/%d clients finished the resumed leg", stats.Done.Load(), numClients)
	}
}
