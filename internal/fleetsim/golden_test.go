package fleetsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/flnet"
	"repro/internal/leakcheck"
)

// stateDigest is the SHA-256 of the state's little-endian float64 bits.
func stateDigest(state []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range state {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetGoldenDigests pins the final state of three fleet federations to
// digests recorded at 91d32d3, when the fleet was a second, hand-written
// protocol loop: synthetic updates are a pure function of the seed and the
// fold is exact, so a fleet of real flnet.RunClient sessions must land on
// the same bits — through materialized FedAvg, through sampling with the
// streaming fold, and through the lossy codec stack (the per-client
// quantizer streams and the canonical broadcast chain are seeded).
func TestFleetGoldenDigests(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	cases := []struct {
		name               string
		numClients, rounds int
		dim                int
		seed               int64
		server             func(cfg *flnet.ServerConfig)
		want               string
	}{
		{
			name: "retained fedavg", numClients: 12, rounds: 4, dim: 96, seed: 101,
			server: func(cfg *flnet.ServerConfig) { cfg.Streaming = false },
			want:   "a7ecd33a0830748c0851ed23e9fc7719d0c4bbe355d630c5ef84e58cdae63635",
		},
		{
			name: "sampled streaming", numClients: 40, rounds: 5, dim: 64, seed: 202,
			server: func(cfg *flnet.ServerConfig) {
				cfg.SampleSize, cfg.MinClients, cfg.SampleSeed = 10, 10, 7
			},
			want: "802f718d3bd7af20b409ec0fde4ace23ada9adc1c51c776d62f176882d4a98ce",
		},
		{
			name: "int8 topk delta", numClients: 8, rounds: 5, dim: 256, seed: 303,
			server: func(cfg *flnet.ServerConfig) {
				cfg.Compress, cfg.Quantize, cfg.TopK, cfg.Delta, cfg.QuantSeed = true, "int8", 0.25, true, 9
			},
			want: "54d8d7103dc106092ea4c97a135f32832ee90290d7bf0bd628d706cb9ec278a6",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := wireServerConfig(tc.numClients, tc.rounds, tc.dim)
			tc.server(&cfg)
			final, _ := runWireFederation(t, cfg, &Fleet{
				N: tc.numClients, Dim: tc.dim, Seed: tc.seed,
				IOTimeout: 20 * time.Second,
			})
			if got := stateDigest(final); got != tc.want {
				t.Fatalf("final state digest %s, want %s", got, tc.want)
			}
		})
	}
}
