package flnet

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// runFedWithWire runs one complete federation on the shared fedBed fixtures
// with the given server codec config, returning the final global state.
func runFedWithWire(t *testing.T, bed *fedBed, rounds int, mutate func(*ServerConfig)) []float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ServerConfig{
		NumClients:   bed.numClients,
		Rounds:       rounds,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, _, srvOut := startServer(t, ctx, cfg, nil)

	var wg sync.WaitGroup
	errCh := make(chan error, bed.numClients)
	for id := 0; id < bed.numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr:    srv.Addr().String(),
				Trainer: bed.trainer(id),
				Defense: bed.defense("none"),
			})
			if err != nil {
				errCh <- err
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	out := <-srvOut
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.state
}

// relL2 is ‖a−b‖ / ‖b‖.
func relL2(a, b []float64) float64 {
	var diff, norm float64
	for i := range a {
		d := a[i] - b[i]
		diff += d * d
		norm += b[i] * b[i]
	}
	return math.Sqrt(diff) / math.Sqrt(norm)
}

// TestQuantizedFederationConverges is the lossy-codec tolerance acceptance:
// the same seeded federation run over int8-quantized, delta-encoded,
// compressed frames must land within a small relative distance of the
// lossless run's final global model — quantization noise perturbs, it must
// not derail.
func TestQuantizedFederationConverges(t *testing.T) {
	const rounds = 3
	bed := newFedBed(t, 2)
	baseline := runFedWithWire(t, bed, rounds, nil)
	if len(baseline) == 0 {
		t.Fatal("baseline federation produced no state")
	}

	quantized := runFedWithWire(t, bed, rounds, func(cfg *ServerConfig) {
		cfg.Compress = true
		cfg.Quantize = "int8"
		cfg.Delta = true
		cfg.QuantSeed = 5
	})
	if len(quantized) != len(baseline) {
		t.Fatalf("quantized run produced %d values, baseline %d", len(quantized), len(baseline))
	}
	for i, v := range quantized {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("quantized state[%d] is %v", i, v)
		}
	}
	rel := relL2(quantized, baseline)
	t.Logf("relative L2 distance to lossless run: %.4f", rel)
	if rel > 0.05 {
		t.Fatalf("quantized federation drifted %.4f relative L2 from baseline; tolerance is 0.05", rel)
	}

	// A lossless coded run (byte planes of XOR deltas, no quantization) must
	// match the codec-free baseline exactly: those codecs change no bits.
	// Every broadcast after round 0 and every upload is a delta.
	hits, misses := telWireDeltaHits.Value(), telWireDeltaMisses.Value()
	lossless := runFedWithWire(t, bed, rounds, func(cfg *ServerConfig) {
		cfg.Compress = true
		cfg.Delta = true
	})
	if got, want := telWireDeltaHits.Value()-hits, int64(bed.numClients*(rounds-1+rounds)); got != want {
		t.Errorf("lossless run sent %d delta sections, want %d (broadcasts of rounds 1.. and every upload)", got, want)
	}
	if got := telWireDeltaMisses.Value() - misses; got != 0 {
		t.Errorf("lossless run missed its anchor %d times", got)
	}
	for i := range baseline {
		if lossless[i] != baseline[i] {
			t.Fatalf("lossless coded state[%d] = %x, codec-free baseline %x; the codecs must be bit-transparent",
				i, math.Float64bits(lossless[i]), math.Float64bits(baseline[i]))
		}
	}
}

// TestQuantizedTopKFederationDeterministic runs the full lossy stack —
// int8 levels, top-k sparsified uploads, quantized delta broadcasts,
// streaming fold — twice from the same seeds and demands bit-identical
// final models. Each client session encodes with its own codec scratch and
// the server's round loop with its own; under -race this is also the proof
// that no encoder is ever shared between goroutines.
func TestQuantizedTopKFederationDeterministic(t *testing.T) {
	const rounds = 2
	bed := newFedBed(t, 2)
	run := func() []float64 {
		return runFedWithWire(t, bed, rounds, func(cfg *ServerConfig) {
			cfg.Compress = true
			cfg.Quantize = "int8"
			cfg.TopK = 0.1
			cfg.Delta = true
			cfg.QuantSeed = 5
			cfg.Streaming = true
		})
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("runs produced %d and %d values", len(first), len(second))
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("state[%d] = %x in the first run, %x in the second", i,
				math.Float64bits(first[i]), math.Float64bits(second[i]))
		}
	}
}
