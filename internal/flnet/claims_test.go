package flnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fl"
)

// A federation keeps only the states a peer can still claim (DESIGN choice
// 17): a synchronous server's anchor ring holds the two broadcasts a session
// can anchor on, and a client holds its two anchors in two buffers that
// rotate.

// claimSetups are the two federations the ring oracle and the live-state
// gate run: the lossless wire with sequential checkpoints and retained
// updates, and int8+top-k with pipelined checkpoints and streaming
// aggregation. liveBudget is TestFederationLiveStates' bound, in states: PR
// 25 read 17.23–17.24 and 20.45–20.47 over nine runs at GOMAXPROCS 1, 2 and
// 4, so the budget is a state above the reading; the parent of PR 25 read
// 26.2 and 29.4, eight states over it.
var claimSetups = []struct {
	name       string
	set        func(*ServerConfig)
	liveBudget float64
}{
	{"lossless/sequential/retained", func(c *ServerConfig) { c.Compress, c.Delta = true, true }, 18.2},
	{"int8+topk/pipelined/streaming", func(c *ServerConfig) {
		c.Compress, c.Delta, c.Quantize, c.TopK, c.QuantSeed = true, true, "int8", 0.5, 5
		c.Pipeline, c.Streaming = true, true
	}, 21.4},
}

// runMemFleet runs srv to completion against one RunClient per registered
// client, client(id) filling in each one's trainer, defense and hooks.
func runMemFleet(t *testing.T, srv *Server, n int, client func(id int) ClientConfig) []float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, errs[id] = RunClient(ctx, client(id))
		}(id)
	}
	final, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	return final
}

// ringLen is how many broadcasts the ring holds.
func ringLen(r *bcastRing) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// tappedFrame is the header of one frame a client read.
type tappedFrame struct {
	kind          Kind
	flags         byte
	round, anchor int
}

// frameTap records the header of every frame read through the connection
// it wraps, into a list its client's successive connections share.
type frameTap struct {
	net.Conn
	frames *[]tappedFrame
	head   []byte // the current frame's length prefix and fixed header so far
	skip   int    // bytes of the current frame still to pass over
}

func (c *frameTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip, b = c.skip-k, b[k:]
			continue
		}
		k := min(4+fixedHeaderLen-len(c.head), len(b))
		c.head, b = append(c.head, b[:k]...), b[k:]
		if len(c.head) == 4+fixedHeaderLen {
			h := c.head[4:]
			*c.frames = append(*c.frames, tappedFrame{
				kind: Kind(h[1]), flags: h[2],
				round:  int(int64(binary.LittleEndian.Uint64(h[12:]))),
				anchor: int(int64(binary.LittleEndian.Uint64(h[52:]))),
			})
			c.skip, c.head = int(binary.LittleEndian.Uint32(c.head))-fixedHeaderLen, c.head[:0]
		}
	}
	return n, err
}

// tappedClient is one client of a federation whose frames and completed
// rounds are recorded.
type tappedClient struct {
	frames    []tappedFrame
	completed []int
	conn      net.Conn // the current session's connection
}

func (tc *tappedClient) dial(ln *MemListener) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := ln.Dial(ctx)
		if err != nil {
			return nil, err
		}
		tc.conn = &frameTap{Conn: conn, frames: &tc.frames}
		return tc.conn, nil
	}
}

// checkGlobalAnchors holds every Global tc read to the anchor contract: one
// sent the round after the client's last completed round p is a delta
// anchored on p, any other goes out in full. It returns how many Globals
// reached the client after a gap of more than one round.
func checkGlobalAnchors(t *testing.T, id int, tc *tappedClient) (gapped int) {
	t.Helper()
	for _, f := range tc.frames {
		if f.kind != KindGlobal {
			continue
		}
		p := -1
		for _, r := range tc.completed {
			if r < f.round {
				p = max(p, r)
			}
		}
		delta := f.flags&flagDelta != 0
		switch {
		case p >= 0 && f.round-p == 1:
			if !delta || f.anchor != p {
				t.Errorf("client %d: round %d's Global (delta %v, anchor %d), want a delta against its last round %d", id, f.round, delta, f.anchor, p)
			}
		case delta:
			t.Errorf("client %d: round %d's Global is a delta against round %d, want a full state (last round %d)", id, f.round, f.anchor, p)
		case p >= 0:
			gapped++
		}
	}
	return gapped
}

// TestBroadcastRingRetainsClaimableRounds: in a synchronous federation the
// ring holds at most the two rounds a peer can anchor on — the newest
// broadcast and the one before — instead of a window of eight; and the
// anchor contract is the parent's: a peer back the round after completing
// round r, sampled or redialed, gets a delta against r, and a peer back
// after a longer gap gets a full state.
func TestBroadcastRingRetainsClaimableRounds(t *testing.T) {
	bed := newFedBed(t, 2)
	for _, setup := range claimSetups {
		t.Run(setup.name, func(t *testing.T) {
			const rounds = 10 // more than the eight entries the ring once kept
			cfg := ServerConfig{Rounds: rounds, Defense: bed.defense("dinar"), Dataset: "purchase100",
				CheckpointPath: filepath.Join(t.TempDir(), "fed.ckpt")}
			setup.set(&cfg)
			srv, ln := newMemServer(t, bed, cfg)
			held := make([]int, rounds+1) // the last is the Done frame's
			hooked := &hookedDefense{Defense: bed.defense("dinar"), onGlobal: func(round int) {
				// Round's broadcast is in the ring; the next cannot be before
				// this client answers.
				held[round] = ringLen(srv.ring)
			}}
			runMemFederation(t, bed, srv, ln, dinarFleet(bed, hooked))
			for round, n := range held {
				if n > 2 || round > 0 && n < 2 {
					t.Errorf("round %d: the ring holds %d broadcasts, want %d", round, n, min(round+1, 2))
				}
			}
		})
	}

	bed3 := newFedBed(t, 3)
	// lossless builds a three-client lossless-delta server; each client's
	// frames and completed rounds are recorded.
	lossless := func(t *testing.T, rounds int, set func(*ServerConfig)) (*Server, *MemListener, []*tappedClient) {
		cfg := ServerConfig{Rounds: rounds, Defense: bed3.defense("none"), Compress: true, Delta: true, MinClients: 1}
		set(&cfg)
		srv, ln := newMemServer(t, bed3, cfg)
		return srv, ln, []*tappedClient{{}, {}, {}}
	}
	clientConfig := func(ln *MemListener, id int, tc *tappedClient, def fl.Defense) ClientConfig {
		return ClientConfig{Dial: tc.dial(ln), Trainer: bed3.trainer(id), Defense: def, BaseBackoff: time.Millisecond,
			AfterRound: func(round int) { tc.completed = append(tc.completed, round) }}
	}

	t.Run("sampled", func(t *testing.T) {
		srv, ln, tcs := lossless(t, 12, func(c *ServerConfig) { c.SampleSize, c.SampleSeed = 1, 3 })
		runMemFleet(t, srv, 3, func(id int) ClientConfig { return clientConfig(ln, id, tcs[id], bed3.defense("none")) })
		gapped := 0
		for id, tc := range tcs {
			gapped += checkGlobalAnchors(t, id, tc)
		}
		if gapped == 0 {
			t.Error("no client was sampled again after sitting a round out; the draw tests nothing")
		}
	})

	t.Run("redial", func(t *testing.T) {
		// Client 1 drops after round 1 and is back for round 2; client 2
		// drops after round 0 and is back for round 3. Client 0 holds its
		// round-back broadcast until the returning client has received its
		// own, so the return lands in exactly that round.
		type leave struct{ after, back int }
		leaves := map[int]leave{1: {1, 2}, 2: {0, 3}}
		reached, returned := map[int]chan struct{}{}, map[int]chan struct{}{}
		for id, l := range leaves {
			reached[l.back], returned[id] = make(chan struct{}), make(chan struct{})
		}
		srv, ln, tcs := lossless(t, 5, func(*ServerConfig) {})
		live := func(id int) bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return srv.live[id] != nil
		}
		runMemFleet(t, srv, 3, func(id int) ClientConfig {
			tc := tcs[id]
			def := &hookedDefense{Defense: bed3.defense("none")}
			cfg := clientConfig(ln, id, tc, def)
			if id == 0 {
				def.onGlobal = func(round int) {
					if ch, ok := reached[round]; ok {
						close(ch)
						for id, l := range leaves {
							if l.back == round {
								<-returned[id]
							}
						}
					}
				}
				return cfg
			}
			l, record := leaves[id], cfg.AfterRound
			def.onGlobal = func(round int) {
				if round == l.back {
					close(returned[id])
				}
			}
			cfg.AfterRound = func(round int) {
				record(round)
				if round == l.after {
					tc.conn.Close()
					<-reached[l.back]
					// Redial once the round has evicted the old session, so
					// the Hello is not turned away as a duplicate.
					for live(id) {
						time.Sleep(time.Millisecond)
					}
				}
			}
			return cfg
		})
		for id, tc := range tcs {
			checkGlobalAnchors(t, id, tc)
		}
		for id, l := range leaves {
			i := slices.IndexFunc(tcs[id].frames, func(f tappedFrame) bool { return f.kind == KindGlobal && f.round == l.back })
			if i < 0 {
				t.Errorf("client %d never got round %d's Global", id, l.back)
				continue
			}
			f := tcs[id].frames[i]
			if delta, want := f.flags&flagDelta != 0, l.back-l.after == 1; delta != want || delta && f.anchor != l.after {
				t.Errorf("client %d back after %d rounds: Global delta %v against %d, want delta %v against %d", id, l.back-l.after, delta, f.anchor, want, l.after)
			}
		}
	})
}

// globalTap is a Trainer that shows every broadcast it is handed to see.
type globalTap struct {
	Trainer
	see func([]float64)
}

func (g *globalTap) RunRound(round int, global []float64, def fl.Defense) (*fl.Update, error) {
	g.see(global)
	return g.Trainer.RunRound(round, global, def)
}

// TestClientHoldsTwoAnchorBuffers: over twelve rounds of delta broadcasts,
// lossless and quantized, every state a client session decodes lives in one
// of two backing arrays — the completed anchor and the spare — which swap
// roles each round. A frame anchored on the round still pending is refused,
// and the pending broadcast it would have decoded over is left as it was.
func TestClientHoldsTwoAnchorBuffers(t *testing.T) {
	bed := newFedBed(t, 1)
	for _, setup := range claimSetups {
		t.Run(setup.name, func(t *testing.T) {
			cfg := ServerConfig{Rounds: 12, Defense: bed.defense("none")}
			setup.set(&cfg)
			cfg.CheckpointPath = ""
			srv, ln := newMemServer(t, bed, cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			serverDone := make(chan error, 1)
			go func() {
				_, err := srv.Run(ctx)
				serverDone <- err
			}()

			arrays := map[*float64]bool{}
			see := func(s []float64) {
				if cap(s) > 0 {
					arrays[&s[:cap(s)][0]] = true
				}
			}
			anchors := &wireAnchors{round: -1, pendRound: -1}
			last := -1
			final, serr := runSession(ctx, ClientConfig{
				Dial: ln.Dial, Trainer: &globalTap{Trainer: bed.trainer(0), see: see}, Defense: bed.defense("none"),
				IOTimeout:  30 * time.Second,
				AfterRound: func(int) { see(anchors.state); see(anchors.pendState) },
			}, &last, anchors)
			if serr != nil {
				t.Fatal(serr.err)
			}
			if err := <-serverDone; err != nil {
				t.Fatal(err)
			}
			see(final)
			if last != 11 || len(arrays) != 2 {
				t.Errorf("after %d rounds the session decoded into %d backing arrays, want 2", last+1, len(arrays))
			}
		})
	}

	t.Run("hostile", func(t *testing.T) {
		const dim = 256
		prev, pend, next := testState(1, dim), testState(2, dim), testState(3, dim)
		canon, err := fl.EncodeDelta(fl.QuantInt8, 5, -1, 6, 5, pend, next, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, caps := range []uint32{CapBinary | CapFlate | CapDelta, CapBinary | CapFlate | CapDelta | CapQuantInt8} {
			anchors := &wireAnchors{round: 4, state: slices.Clone(prev), pendRound: -1}
			anchors.received(5, slices.Clone(pend))
			var frame bytes.Buffer
			server := NewCodec(caps, 5, 0, ringBase(map[int][]float64{5: pend}))
			if err := WriteMessageWith(&frame, &Message{Kind: KindGlobal, Round: 6, State: next, Canon: canon}, server); err != nil {
				t.Fatal(err)
			}
			msg := &Message{State: anchors.spare()}
			err := ReadMessageWith(&frame, msg, NewCodec(caps, 5, 0, anchors.base))
			if err == nil || !strings.Contains(err.Error(), "no shared anchor") {
				t.Errorf("caps %#x: a frame anchored on the pending round decoded with error %v", caps, err)
			}
			if !bitsEqual(anchors.pendState, pend) || !bitsEqual(anchors.state, prev) {
				t.Errorf("caps %#x: the refused frame wrote into an anchor buffer", caps)
			}
		}
	})
}

// TestFederationLiveStates is the in-repo gate for peak_rss_mb: at the end of
// a federation's last round — client 0's upload written, client 1 held before
// its own — the live heap of a two-client dinar federation, server and
// clients in one process, is at most liveBudget states. The state is large
// enough (texas100's FCNN6, over 2^19 values) that states are most of the
// heap. The heap is read after two collections, so the pools are empty, and
// the least of ten readings 20 ms apart is kept, so what the server is still
// doing with client 0's upload does not count. Before PR 25 the same point
// held nine states more: eight ring entries instead of two, three anchor
// buffers per client instead of two, and the caller's initial state.
func TestFederationLiveStates(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the live heap at that point swings by a state (19.9–22.2 over three runs)")
	}
	const rounds = 10
	bed := newFedBedOn(t, "texas100", 2)
	dim := len(bed.initialState())
	if dim < 1<<19 {
		t.Fatalf("state has %d values, want at least 2^19", dim)
	}
	for _, setup := range claimSetups {
		t.Run(setup.name, func(t *testing.T) {
			cfg := ServerConfig{Rounds: rounds, Defense: bed.defense("dinar"), Dataset: "texas100",
				CheckpointPath: filepath.Join(t.TempDir(), "fed.ckpt")}
			setup.set(&cfg)
			srv, ln := newMemServer(t, bed, cfg)
			measured := make(chan struct{})
			var live float64
			runMemFleet(t, srv, 2, func(id int) ClientConfig {
				def := &hookedDefense{Defense: bed.defense("dinar")}
				cfg := ClientConfig{Dial: ln.Dial, Trainer: bed.trainer(id), Defense: def}
				if id == 0 {
					cfg.AfterRound = func(round int) {
						if round == rounds-1 {
							live = math.Inf(1)
							for range 10 {
								runtime.GC()
								runtime.GC()
								var ms runtime.MemStats
								runtime.ReadMemStats(&ms)
								live = min(live, float64(ms.HeapAlloc)/float64(8*dim))
								time.Sleep(20 * time.Millisecond)
							}
							close(measured)
						}
					}
				} else {
					def.beforeUpload = func(round int, _ *fl.Update) {
						if round == rounds-1 {
							<-measured
						}
					}
				}
				return cfg
			})
			t.Logf("%.2f states live at the end of round %d (dim %d), budget %.2f", live, rounds-1, dim, setup.liveBudget)
			if live > setup.liveBudget {
				t.Errorf("%.2f states live at the end of the federation, budget %.2f", live, setup.liveBudget)
			}
		})
	}
}
