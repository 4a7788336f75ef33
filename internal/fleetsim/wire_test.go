package fleetsim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
)

// wireServerConfig builds the standard config the wire tests drive: a
// streaming sampled-free federation with the codec knobs passed through.
func wireServerConfig(numClients, rounds, dim int, ln *MemListener) flnet.ServerConfig {
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

// TestWireNegotiationMatrix is the capability-intersection acceptance
// matrix: a server offering the full codec stack must complete federations
// with full-capability clients, with clients that ask for the ack but no
// payload codec, and with clients that advertise nothing at all (no ack,
// raw float64 frames) — and the offered label must show on /healthz.
func TestWireNegotiationMatrix(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	const (
		numClients = 8
		rounds     = 3
		dim        = 64
	)
	cases := []struct {
		name      string
		caps      uint32
		wantLabel string
	}{
		{"full codecs", flnet.ClientCaps, "binary+flate+int8+topk+delta"},
		{"lossless subset", flnet.CapBinary | flnet.CapFlate | flnet.CapDelta, "binary+flate+int8+topk+delta"},
		{"binary only", flnet.CapBinary, "binary+flate+int8+topk+delta"},
		{"no capabilities", 0, "binary+flate+int8+topk+delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln := Listen(numClients)
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
			if got := srv.Health().Wire; got != tc.wantLabel {
				t.Fatalf("Health().Wire = %q, want %q", got, tc.wantLabel)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			fleet := &Fleet{
				N: numClients, Dim: dim, Seed: 21,
				Caps: tc.caps,
				Dial: ln.Dial, IOTimeout: 20 * time.Second,
			}
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
		})
	}
}

// TestWireUnsupportedVersionRejected pins the version check: a hello of
// any other protocol version must be turned away with a version error, not
// half-served.
func TestWireUnsupportedVersionRejected(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	const numClients = 2
	ln := Listen(numClients)
	cfg := wireServerConfig(numClients, 1, 16, ln)
	cfg.MinClients = numClients
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		srvDone <- err
	}()

	for _, version := range []int{flnet.ProtocolVersion - 1, flnet.ProtocolVersion + 1} {
		old := &Fleet{N: 1, Dim: 16, Seed: 1, Version: version, MaxRetries: 1,
			Dial: ln.Dial, IOTimeout: 5 * time.Second}
		stats := old.Run(ctx)
		if stats.Done.Load() != 0 || stats.GaveUp.Load() != 1 {
			t.Fatalf("v%d client outcome done=%d gaveUp=%d, want a rejection", version, stats.Done.Load(), stats.GaveUp.Load())
		}
	}
	cancel()
	<-srvDone
}

// TestWireBytesReduction is the codec stack's acceptance criterion: with
// compression, int8 quantization, and delta broadcasts negotiated, the
// bytes moved per federation round must drop at least 4x against a
// codec-free session (raw float64 frames) at the same scale.
func TestWireBytesReduction(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	const (
		numClients = 16
		rounds     = 8
		dim        = 2048
	)
	run := func(coded bool) int64 {
		ln := Listen(numClients)
		cfg := wireServerConfig(numClients, rounds, dim, ln)
		fleet := &Fleet{N: numClients, Dim: dim, Seed: 9, Dial: ln.Dial, IOTimeout: 20 * time.Second}
		if coded {
			cfg.Compress = true
			cfg.Quantize = "int8"
			cfg.Delta = true
			cfg.QuantSeed = 3
			fleet.Caps = flnet.ClientCaps
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
	chaos.GuardTest(t, 5*time.Second)
	const (
		numClients = 6
		dim        = 48
		seed       = 5
	)
	path := filepath.Join(t.TempDir(), "wire.ckpt")

	ln := Listen(numClients)
	cfg := wireServerConfig(numClients, 2, dim, ln)
	cfg.Compress = true
	cfg.Quantize = "int8"
	cfg.Delta = true
	cfg.QuantSeed = seed
	cfg.CheckpointPath = path
	fleet := &Fleet{N: numClients, Dim: dim, Seed: 31, Caps: flnet.ClientCaps, Dial: ln.Dial, IOTimeout: 20 * time.Second}
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
	conflict := wireServerConfig(numClients, 4, dim, Listen(numClients))
	conflict.Quantize = "int8"
	conflict.QuantSeed = seed + 1
	conflict.CheckpointPath = path
	if _, err := flnet.NewServer(conflict); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("conflicting quant seed accepted: %v", err)
	}

	// Seed left unset: the resumed server adopts the recorded one and the
	// federation completes its remaining rounds quantized.
	ln2 := Listen(numClients)
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
	fleet2 := &Fleet{N: numClients, Dim: dim, Seed: 31, Caps: flnet.ClientCaps, Dial: ln2.Dial, IOTimeout: 20 * time.Second}
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
