package flnet

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/fl"
)

// Who owns a state-sized buffer (DESIGN choice 17), held to the code: a
// published global state is shared uncopied by the server core, the anchor
// ring, every broadcast and the checkpoint writer, so nothing may ever write
// into one — and a round may not quietly go back to copying them.

// newMemServer builds cfg's server for bed's fleet on an in-memory listener.
func newMemServer(t *testing.T, bed *fedBed, cfg ServerConfig) (*Server, *MemListener) {
	t.Helper()
	ln := ListenMem(bed.numClients)
	cfg.Listener, cfg.NumClients = ln, bed.numClients
	cfg.InitialState, cfg.IOTimeout = bed.initialState(), 30*time.Second
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ln
}

// runMemFederation runs srv to completion against one fl.Client per
// registered client, each under the defense clientDefense builds for it, and
// returns the final state.
func runMemFederation(t *testing.T, bed *fedBed, srv *Server, ln *MemListener, clientDefense func(id int) fl.Defense) []float64 {
	t.Helper()
	return runMemFleet(t, srv, bed.numClients, func(id int) ClientConfig {
		return ClientConfig{Dial: ln.Dial, Trainer: bed.trainer(id), Defense: clientDefense(id)}
	})
}

// dinarFleet gives client 0 the hooked defense and every other client a
// fresh DINAR of its own.
func dinarFleet(bed *fedBed, hooked fl.Defense) func(id int) fl.Defense {
	return func(id int) fl.Defense {
		if id == 0 {
			return hooked
		}
		return bed.defense("dinar")
	}
}

// TestPublishedStateIsNeverWritten records a SHA-256 of every state the
// server publishes — the core's global state and the ring's newest canonical
// broadcast, read from client 0's download hook the first time each round
// exposes them — and checks all of them again after the run: uploads were
// decoded into pooled buffers, folded and recycled, checkpoints written in
// the foreground and in the background, quantized broadcasts rebuilt from
// their predecessors, and not one published value moved. Under -race (make
// service) the detector also watches the background checkpoint writer read
// what the next round's loop is reading.
func TestPublishedStateIsNeverWritten(t *testing.T) {
	bed := newFedBed(t, 2)
	const rounds = 4
	wires := map[string]func(*ServerConfig){
		"lossless": func(c *ServerConfig) { c.Compress, c.Delta = true, true },
		"int8+topk": func(c *ServerConfig) {
			c.Compress, c.Delta, c.Quantize, c.TopK, c.QuantSeed = true, true, "int8", 0.5, 5
		},
	}
	for wire, setWire := range wires {
		for _, pipeline := range []bool{false, true} {
			for _, streaming := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/pipeline=%v/streaming=%v", wire, pipeline, streaming), func(t *testing.T) {
					cfg := ServerConfig{
						Rounds: rounds, Defense: bed.defense("dinar"), Dataset: "purchase100",
						CheckpointPath: filepath.Join(t.TempDir(), "fed.ckpt"),
						Pipeline:       pipeline, Streaming: streaming,
					}
					setWire(&cfg)
					srv, ln := newMemServer(t, bed, cfg)
					type published struct {
						state []float64
						sum   [sha256.Size]byte
					}
					var seen []published
					record := func(state []float64) {
						for _, p := range seen {
							if &p.state[0] == &state[0] {
								return
							}
						}
						seen = append(seen, published{state, digest(state)})
					}
					// The broadcast client 0 is handed was written after the
					// server published round's state and before it can finish
					// the round (that needs this client's upload), so reading
					// the server here is ordered with its round loop.
					hooked := &hookedDefense{Defense: bed.defense("dinar"), onGlobal: func(int) {
						record(srv.core.GlobalState())
						if _, bcast := srv.ring.latest(); bcast != nil {
							record(bcast)
						}
					}}
					final := runMemFederation(t, bed, srv, ln, dinarFleet(bed, hooked))
					record(final)
					if len(seen) < rounds+1 {
						t.Fatalf("saw %d published states over %d rounds", len(seen), rounds)
					}
					for i, p := range seen {
						if digest(p.state) != p.sum {
							t.Errorf("published state %d of %d was written to after it was published", i, len(seen))
						}
					}
				})
			}
		}
	}
}

func digest(state []float64) [sha256.Size]byte {
	return sha256.Sum256(binenc.AppendRawF64s(nil, state))
}

// TestRoundByteBudget is the in-repo gate for alloc_mb_per_round: in steady
// state (rounds 3…8) a whole round — every client and the server, in one
// process — may allocate two states' worth of bytes plus a fixed slack. One
// of the two is the state that has to exist, the aggregate that becomes the
// next published global; the rest is batch tensors, loss results, the flate
// streams and the checkpoint's chunk. The collector is off while the rounds
// run, so no pool is emptied under the measurement: a refill is a cost of GC
// timing, not of the round. Before PR 24 the same rounds made ≈ 7 states (in
// process) and ≈ 12 (over the wire).
func TestRoundByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bed := newFedBed(t, 2)
	dim := len(bed.initialState())
	const first, last, slack = 3, 8, 1 << 20
	budget := uint64(2*8*dim + slack)
	check := func(t *testing.T, from, to uint64) {
		t.Helper()
		perRound := (to - from) / (last - first + 1)
		t.Logf("%.2f MB per round (%.2f states), budget %.2f MB", float64(perRound)/1e6, float64(perRound)/float64(8*dim), float64(budget)/1e6)
		if perRound > budget {
			t.Fatalf("a steady-state round allocates %d bytes, budget %d (dim %d)", perRound, budget, dim)
		}
	}
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}

	t.Run("system", func(t *testing.T) {
		sys, err := fl.NewSystem(fl.Config{Dataset: "purchase100", Records: 400, Clients: 2, LocalEpochs: 1, BatchSize: 32, Seed: fbSeed}, bed.defense("dinar"))
		if err != nil {
			t.Fatal(err)
		}
		var from uint64
		for round := 0; round <= last; round++ {
			if round == first {
				from = totalAlloc()
			}
			if _, err := sys.RunRound(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		check(t, from, totalAlloc())
	})

	t.Run("memlistener", func(t *testing.T) {
		var from, to uint64
		hooked := &hookedDefense{Defense: bed.defense("dinar"), onGlobal: func(round int) {
			switch round {
			case first:
				from = totalAlloc()
			case last + 1:
				to = totalAlloc()
			}
		}}
		cfg := ServerConfig{
			Rounds: last + 2, Defense: bed.defense("dinar"), Dataset: "purchase100",
			CheckpointPath: filepath.Join(t.TempDir(), "fed.ckpt"), Compress: true, Delta: true,
		}
		srv, ln := newMemServer(t, bed, cfg)
		runMemFederation(t, bed, srv, ln, dinarFleet(bed, hooked))
		check(t, from, to)
	})
}
