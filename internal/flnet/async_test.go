package flnet

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fl"
)

// The async side of the round engine: with nobody late it must compute what
// the synchronous policy computes, and a late update must fold exactly as
// the staleness-weighted FedAvg oracle says.

// hookedDefense wraps a client-side defense with optional test hooks around
// its two client hooks.
type hookedDefense struct {
	fl.Defense
	onGlobal     func(round int)
	beforeUpload func(round int, u *fl.Update)
}

func (h *hookedDefense) OnGlobalModel(id, round int, global []float64) []float64 {
	if h.onGlobal != nil {
		h.onGlobal(round)
	}
	return h.Defense.OnGlobalModel(id, round, global)
}

func (h *hookedDefense) BeforeUpload(round int, global []float64, u *fl.Update) {
	h.Defense.BeforeUpload(round, global, u)
	if h.beforeUpload != nil {
		h.beforeUpload(round, u)
	}
}

func sortedIDs(ids []int) []int {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAsyncWithoutStragglersMatchesSync: with MinClients == NumClients no
// round can close before every client has reported, so the async policy has
// nothing to carry over — final state, per-round participants and the stale
// count must equal the synchronous run's, streamed or retained.
func TestAsyncWithoutStragglersMatchesSync(t *testing.T) {
	const numClients, rounds = 3, 2
	bed := newFedBed(t, numClients)
	run := func(staleness int, streaming bool) ([]float64, []RoundReport) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv, _, srvOut := startServer(t, ctx, ServerConfig{
			NumClients:     numClients,
			Rounds:         rounds,
			AsyncStaleness: staleness,
			Streaming:      streaming,
			Defense:        bed.defense("none"),
			InitialState:   bed.initialState(),
			IOTimeout:      30 * time.Second,
		}, nil)
		var wg sync.WaitGroup
		for id := 0; id < numClients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if _, err := RunClient(ctx, ClientConfig{
					Addr:    srv.Addr().String(),
					Trainer: bed.trainer(id),
					Defense: bed.defense("none"),
				}); err != nil {
					t.Errorf("client %d: %v", id, err)
				}
			}(id)
		}
		wg.Wait()
		out := <-srvOut
		if out.err != nil {
			t.Fatalf("staleness %d streaming %v: %v", staleness, streaming, out.err)
		}
		return out.state, srv.Reports()
	}

	wantState, wantReports := run(0, false)
	for _, streaming := range []bool{false, true} {
		for _, staleness := range []int{0, 2} {
			if staleness == 0 && !streaming {
				continue // the reference run itself
			}
			state, reports := run(staleness, streaming)
			if !bitsEqual(state, wantState) {
				t.Errorf("staleness %d streaming %v: final state differs from the synchronous retained run", staleness, streaming)
			}
			for r, rep := range reports {
				if got, want := sortedIDs(rep.Participants), sortedIDs(wantReports[r].Participants); !slices.Equal(got, want) {
					t.Errorf("staleness %d streaming %v round %d: participants %v, want %v", staleness, streaming, r, got, want)
				}
				if rep.Stale != 0 || len(rep.Dropped) != 0 {
					t.Errorf("staleness %d streaming %v round %d: stale %d dropped %v, want none", staleness, streaming, r, rep.Stale, rep.Dropped)
				}
			}
		}
	}
}

// TestAsyncStaleFoldOracle holds client 2's round-0 upload back until round
// 1 is open (client 0 has received round 1's broadcast), and client 1's
// round-1 upload back until the federation is over — so round 1 can only
// close on client 0's fresh update plus client 2's late one. That update
// must be reported stale in round 1, its sender never dropped, and the final
// state must equal the staleness-weighted FedAvg of exactly those two
// uploads. Every wait is on a channel; nothing sleeps.
func TestAsyncStaleFoldOracle(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		bed := newFedBed(t, 3)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		srv, _, srvOut := startServer(t, ctx, ServerConfig{
			NumClients:     3,
			MinClients:     2,
			Rounds:         2,
			AsyncStaleness: 1,
			Streaming:      streaming,
			Defense:        bed.defense("none"),
			InitialState:   bed.initialState(),
			IOTimeout:      30 * time.Second,
		}, nil)

		round1Open := make(chan struct{})
		over := make(chan struct{})
		var openOnce sync.Once
		var fresh, late *fl.Update // client 0's round-1 and client 2's round-0 upload
		clone := func(u *fl.Update) *fl.Update {
			cu := *u
			cu.State = slices.Clone(u.State)
			return &cu
		}
		hooks := []*hookedDefense{
			{onGlobal: func(round int) {
				if round == 1 {
					openOnce.Do(func() { close(round1Open) })
				}
			}, beforeUpload: func(round int, u *fl.Update) {
				if round == 1 {
					fresh = clone(u)
				}
			}},
			{beforeUpload: func(round int, _ *fl.Update) {
				if round == 1 {
					<-over
				}
			}},
			{beforeUpload: func(round int, u *fl.Update) {
				if round == 0 {
					late = clone(u)
					<-round1Open
				}
			}},
		}
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for id, h := range hooks {
			h.Defense = bed.defense("none")
			wg.Add(1)
			go func(id int, def fl.Defense) {
				defer wg.Done()
				_, errs[id] = RunClient(ctx, ClientConfig{
					Addr:       srv.Addr().String(),
					Trainer:    bed.trainer(id),
					Defense:    def,
					MaxRetries: -1,
				})
			}(id, h)
		}
		out := <-srvOut
		close(over)
		wg.Wait()
		cancel()
		if out.err != nil {
			t.Fatalf("streaming %v: %v", streaming, out.err)
		}
		// Client 1 was still training when the federation ended; the other
		// two must have finished cleanly.
		if errs[0] != nil || errs[2] != nil {
			t.Fatalf("streaming %v: clients 0/2: %v / %v", streaming, errs[0], errs[2])
		}

		reports := srv.Reports()
		if got := sortedIDs(reports[0].Participants); !slices.Equal(got, []int{0, 1}) || reports[0].Stale != 0 {
			t.Errorf("streaming %v round 0: participants %v stale %d, want [0 1] and 0", streaming, got, reports[0].Stale)
		}
		if got := sortedIDs(reports[1].Participants); !slices.Equal(got, []int{0, 2}) || reports[1].Stale != 1 {
			t.Errorf("streaming %v round 1: participants %v stale %d, want [0 2] and 1", streaming, got, reports[1].Stale)
		}
		for _, rep := range reports {
			if containsID(rep.Dropped, 2) {
				t.Errorf("streaming %v round %d: the straggler was dropped: %+v", streaming, rep.Round, rep)
			}
		}

		oracle := fl.NewStreamingFedAvg()
		late.Staleness = 1
		for _, u := range []*fl.Update{fresh, late} {
			if err := oracle.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		want, err := oracle.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(out.state, want) {
			t.Errorf("streaming %v: final state is not the staleness-weighted FedAvg of the fresh and the late update", streaming)
		}
	}
}
