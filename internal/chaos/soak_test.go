package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/faultnet"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// The chaos soak drives a real multi-client federation through a seeded
// failure schedule — server crash/resume cycles, checkpoint corruption,
// client restarts, connection resets — and asserts the crash-safe
// lifecycle invariants end to end:
//
//   - the faulted run's final global model is bit-identical to an
//     unfaulted run of the same seed (round-replay determinism);
//   - quarantine penalties survive every server restart (a poisoner is
//     not paroled by crashing the server);
//   - a corrupted newest checkpoint generation falls back to the
//     previous intact generation instead of failing or half-loading;
//   - graceful drain checkpoints, notifies clients, reports "draining"
//     on /healthz, and leaves zero goroutines behind.

const soakSeed = 7

// httpClient disables keep-alives so probe requests leave no idle
// transport goroutines behind for the leak guard to trip on.
var httpClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// soakBed mirrors the flnet test fixture: deterministic data/model
// fixtures shared by one federation, with fresh trainers per run.
type soakBed struct {
	t          *testing.T
	spec       data.Spec
	shards     []*data.Dataset
	split      *data.FLSplit
	numClients int
}

func newSoakBed(t *testing.T, numClients int) *soakBed {
	t.Helper()
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = 400
	ds, err := data.Generate(spec, soakSeed)
	if err != nil {
		t.Fatal(err)
	}
	split := data.NewFLSplit(ds, rand.New(rand.NewSource(soakSeed)))
	shards, err := data.PartitionIID(split.Train, numClients, rand.New(rand.NewSource(soakSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return &soakBed{t: t, spec: spec, shards: shards, split: split, numClients: numClients}
}

// trainer builds a fresh replay-enabled trainer for client id: every
// round's batch order is a pure function of (soakSeed, round, id), so a
// retrained round after a crash-resume reproduces its first attempt
// bit-for-bit.
func (b *soakBed) trainer(id int) *fl.Client {
	b.t.Helper()
	m, err := model.Build(b.spec, rand.New(rand.NewSource(soakSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	tr, err := fl.NewClient(id, m, b.shards[id], optim.NewSGD(0.1, 0), 32, 1,
		rand.New(rand.NewSource(soakSeed+100+int64(id))))
	if err != nil {
		b.t.Fatal(err)
	}
	tr.EnableRoundReplay(soakSeed)
	return tr
}

func (b *soakBed) defense(name string) fl.Defense {
	b.t.Helper()
	d, err := defense.New(name, soakSeed, b.numClients)
	if err != nil {
		b.t.Fatal(err)
	}
	m, err := model.Build(b.spec, rand.New(rand.NewSource(soakSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		b.t.Fatal(err)
	}
	return d
}

func (b *soakBed) initialState() []float64 {
	b.t.Helper()
	m, err := model.Build(b.spec, rand.New(rand.NewSource(soakSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	return m.StateVector()
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// clientHandle is one running client goroutine.
type clientHandle struct {
	cancel context.CancelFunc
	done   chan error
}

// startClient launches RunClient for trainer against addr; the poisoner
// NaN-bombs round 0 only (StopAfter is round-keyed, so a restarted or
// replayed poisoner behaves identically).
func startClient(bed *soakBed, addr string, tr *fl.Client, poisoner bool) *clientHandle {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	h := &clientHandle{cancel: cancel, done: make(chan error, 1)}
	def := bed.defense("none")
	if poisoner {
		def = adversary.Wrap(def, soakSeed, adversary.Mark(
			adversary.Plan{Kind: adversary.NaNBomb, StopAfter: 1}, tr.ID))
	}
	go func() {
		_, err := flnet.RunClient(ctx, flnet.ClientConfig{
			Addr:        addr,
			Trainer:     tr,
			Defense:     def,
			MaxRetries:  12,
			BaseBackoff: 20 * time.Millisecond,
		})
		h.done <- err
	}()
	return h
}

// soakServer is one server incarnation.
type soakServer struct {
	srv    *flnet.Server
	cancel context.CancelFunc
	out    chan error
	state  []float64
}

// startIncarnation listens on addr (":0" derives an ephemeral port; a
// restart rebinds the previous address) and runs a server, optionally
// resetting the first accepted connection via faultnet (the partition
// injection).
func startIncarnation(t *testing.T, bed *soakBed, addr, ckpt string, rounds int, resetFirstConn bool) (*soakServer, string) {
	t.Helper()
	inner, err := net.Listen("tcp", addr)
	for retry := time.Now().Add(5 * time.Second); err != nil && addr != "127.0.0.1:0" && time.Now().Before(retry); {
		// A restart rebinds the crashed incarnation's exact address; give
		// the kernel a beat to release it (sockets the old process closed
		// moments ago can briefly hold the port).
		time.Sleep(20 * time.Millisecond)
		inner, err = net.Listen("tcp", addr)
	}
	if err != nil {
		t.Fatal(err)
	}
	var schedule faultnet.Schedule
	if resetFirstConn {
		schedule = func(i int) faultnet.Plan {
			if i == 0 {
				return faultnet.Plan{Kind: faultnet.Reset}
			}
			return faultnet.Plan{}
		}
	}
	ln := faultnet.Listen(inner, schedule)
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients: bed.numClients,
		// Full quorum: every round waits for all clients (rejoins
		// included), so the participant set — and therefore the aggregate
		// — is deterministic no matter when faults fire.
		MinClients:     bed.numClients,
		Rounds:         rounds,
		RoundDeadline:  60 * time.Second,
		Defense:        bed.defense("none"),
		InitialState:   bed.initialState(),
		IOTimeout:      30 * time.Second,
		CheckpointPath: ckpt,
		Dataset:        "purchase100",
		Listener:       ln,
		Screen:         fl.ScreenConfig{QuarantineRounds: 2},
	})
	if err != nil {
		inner.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	ss := &soakServer{srv: srv, cancel: cancel, out: make(chan error, 1)}
	go func() {
		state, err := srv.Run(ctx)
		ss.state = state
		ss.out <- err
	}()
	return ss, srv.Addr().String()
}

// waitCheckpointRound polls until the server has persisted at least round
// checkpoint generations (CheckpointRound counts completed rounds).
func waitCheckpointRound(t *testing.T, srv *flnet.Server, round int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for srv.Health().CheckpointRound < round {
		if time.Now().After(deadline) {
			t.Fatalf("server never checkpointed round %d (at %d)", round, srv.Health().CheckpointRound)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceRun runs one unfaulted federation and returns its final global
// state, per-client personalized accuracies, and round reports.
func referenceRun(t *testing.T, bed *soakBed, rounds, poisonerID int) ([]float64, []float64, []flnet.RoundReport) {
	t.Helper()
	ss, addr := startIncarnation(t, bed, "127.0.0.1:0", "", rounds, false)
	defer ss.cancel()
	trainers := make([]*fl.Client, bed.numClients)
	handles := make([]*clientHandle, bed.numClients)
	for id := 0; id < bed.numClients; id++ {
		trainers[id] = bed.trainer(id)
		handles[id] = startClient(bed, addr, trainers[id], id == poisonerID)
	}
	for id, h := range handles {
		if err := <-h.done; err != nil {
			t.Fatalf("reference client %d: %v", id, err)
		}
		h.cancel()
	}
	if err := <-ss.out; err != nil {
		t.Fatalf("reference federation: %v", err)
	}
	accs := make([]float64, bed.numClients)
	for id, tr := range trainers {
		acc, _, err := tr.Evaluate(bed.split.Test)
		if err != nil {
			t.Fatal(err)
		}
		accs[id] = acc
	}
	return ss.state, accs, ss.srv.Reports()
}

// TestChaosSoakAcceptance is the seeded chaos soak: 3 server
// crash/resume cycles mid-federation (one of which corrupts the newest
// checkpoint generation while the server is down), a client restart, and
// a connection reset, all derived from one seed — after which the final
// global model must be bit-identical to the unfaulted reference run and
// the poisoner's quarantine must have survived every restart.
func TestChaosSoakAcceptance(t *testing.T) {
	const (
		numClients = 3
		rounds     = 6
		poisonerID = 2
	)
	guard := leakcheck.New()
	bed := newSoakBed(t, numClients)

	wantState, wantAccs, wantReports := referenceRun(t, bed, rounds, poisonerID)

	plan := Plan{
		Rounds:      rounds,
		NumClients:  numClients,
		Crashes:     3,
		Corruptions: 1,
		Restarts:    1,
		Partitions:  1,
	}
	events := Schedule(soakSeed, plan)
	var crashes, clientEvents []Event
	corruptRounds := make(map[int]bool)
	for _, ev := range events {
		switch ev.Kind {
		case CrashServer:
			crashes = append(crashes, ev)
		case RestartClient:
			clientEvents = append(clientEvents, ev)
		case CorruptCheckpoint:
			corruptRounds[ev.Round] = true
		}
	}
	if len(crashes) < 3 {
		t.Fatalf("schedule produced %d crashes, want >= 3: %+v", len(crashes), events)
	}
	t.Logf("chaos schedule: %+v", events)

	ckpt := filepath.Join(t.TempDir(), "global.ckpt")
	// The first incarnation resets its first accepted connection (the
	// faultnet partition): that client redials with backoff and the round
	// waits for it.
	ss, addr := startIncarnation(t, bed, "127.0.0.1:0", ckpt, rounds, plan.Partitions > 0)

	trainers := make([]*fl.Client, numClients)
	handles := make([]*clientHandle, numClients)
	for id := 0; id < numClients; id++ {
		trainers[id] = bed.trainer(id)
		handles[id] = startClient(bed, addr, trainers[id], id == poisonerID)
	}

	// merged accumulates per-round reports across incarnations; a replayed
	// round's second run overwrites the first (only the replay's aggregate
	// survived).
	merged := make(map[int]flnet.RoundReport)
	record := func(srv *flnet.Server) {
		for _, r := range srv.Reports() {
			merged[r.Round] = r
		}
	}

	corrupted := false
	sawFallback := false
	for i, crash := range crashes {
		waitCheckpointRound(t, ss.srv, crash.Round)

		// Fire any client restart scheduled at or before this crash's
		// round: the old client dies mid-round; a fresh trainer (same
		// replay base, same adversary plan) rejoins and the quorum round
		// waits for it. Restarting even the poisoner is replay-safe: its
		// attack is round-keyed (StopAfter), not process-keyed.
		for j, ev := range clientEvents {
			if ev.Round <= crash.Round && handles[ev.Client] != nil {
				handles[ev.Client].cancel()
				<-handles[ev.Client].done
				trainers[ev.Client] = bed.trainer(ev.Client)
				handles[ev.Client] = startClient(bed, addr, trainers[ev.Client], ev.Client == poisonerID)
				clientEvents[j].Round = rounds + 1 // fired; never again
			}
		}

		// Crash: cancel the incarnation mid-round (round crash.Round is in
		// flight; rounds 0..crash.Round-1 are durable).
		ss.cancel()
		<-ss.out
		record(ss.srv)

		wantStart := crash.Round
		if corruptRounds[crash.Round] {
			// Corrupt the newest generation while the server is down: the
			// resume must fall back to the previous intact generation and
			// replay one extra round.
			if err := CorruptFile(ckpt, soakSeed+int64(crash.Round)); err != nil {
				t.Fatal(err)
			}
			delete(corruptRounds, crash.Round)
			corrupted = true
			wantStart = crash.Round - 1
		}

		// Resume on the same address; surviving clients redial with
		// backoff and are resynced into the resumed round.
		ss, _ = startIncarnation(t, bed, addr, ckpt, rounds, false)
		if got := ss.srv.StartRound(); got != wantStart {
			t.Fatalf("crash %d: resumed at round %d, want %d", i, got, wantStart)
		}
		if got := ss.srv.StartRound(); got < crash.Round {
			for _, ev := range ss.srv.Events() {
				if strings.Contains(ev.Msg, "skipping corrupt checkpoint") {
					sawFallback = true
				}
			}
		}
	}
	if corrupted && !sawFallback {
		t.Fatal("corrupted-generation fallback was never logged by a resumed server")
	}

	for id, h := range handles {
		if err := <-h.done; err != nil {
			t.Fatalf("soak client %d: %v", id, err)
		}
		h.cancel()
	}
	if err := <-ss.out; err != nil {
		t.Fatalf("faulted federation failed: %v", err)
	}
	record(ss.srv)
	ss.cancel()

	// Bit-identity: the faulted run must converge to exactly the reference
	// global model and personalized accuracies.
	if len(ss.state) != len(wantState) {
		t.Fatalf("state lengths differ: %d vs %d", len(ss.state), len(wantState))
	}
	for i := range wantState {
		if ss.state[i] != wantState[i] {
			t.Fatalf("faulted run diverged at coordinate %d: %g vs %g", i, ss.state[i], wantState[i])
		}
	}
	for id, tr := range trainers {
		acc, _, err := tr.Evaluate(bed.split.Test)
		if err != nil {
			t.Fatal(err)
		}
		if acc != wantAccs[id] {
			t.Fatalf("client %d personalized accuracy diverged: %g vs %g", id, acc, wantAccs[id])
		}
	}

	// Quarantine must match the reference round-for-round across every
	// crash: rejected in round 0, excluded while the penalty lasts,
	// readmitted after — regardless of how many times the server restarted
	// in between.
	if len(merged) != rounds {
		t.Fatalf("merged reports cover %d rounds, want %d", len(merged), rounds)
	}
	for _, want := range wantReports {
		got, ok := merged[want.Round]
		if !ok {
			t.Fatalf("no merged report for round %d", want.Round)
		}
		if containsID(want.Rejected, poisonerID) != containsID(got.Rejected, poisonerID) {
			t.Fatalf("round %d rejection diverged: ref %+v vs faulted %+v", want.Round, want, got)
		}
		if containsID(want.Quarantined, poisonerID) != containsID(got.Quarantined, poisonerID) {
			t.Fatalf("round %d quarantine diverged: ref %+v vs faulted %+v", want.Round, want, got)
		}
		if containsID(want.Participants, poisonerID) != containsID(got.Participants, poisonerID) {
			t.Fatalf("round %d participation diverged: ref %+v vs faulted %+v", want.Round, want, got)
		}
	}
	if !containsID(merged[0].Rejected, poisonerID) {
		t.Fatalf("round 0 should reject the poisoner: %+v", merged[0])
	}
	quarantinedRounds := 0
	for r := 1; r < rounds; r++ {
		if containsID(merged[r].Quarantined, poisonerID) {
			quarantinedRounds++
		}
	}
	if quarantinedRounds == 0 {
		t.Fatal("the poisoner was never quarantined in the faulted run")
	}
	if !containsID(merged[rounds-1].Participants, poisonerID) {
		t.Fatalf("the poisoner should be readmitted by the final round: %+v", merged[rounds-1])
	}

	// Everything wound down: no leaked goroutines from any incarnation,
	// client, or fault injector.
	if err := guard.Check(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDrainLifecycle covers graceful shutdown end to end: Shutdown drains
// the in-flight round, /healthz reports "draining" during the window and
// "drained" after, live clients receive drain frames (and back off without
// burning retries), the drained state is checkpointed, a new server
// resumes from it, and no goroutines leak.
func TestDrainLifecycle(t *testing.T) {
	const (
		numClients = 2
		rounds     = 8
	)
	guard := leakcheck.New()
	bed := newSoakBed(t, numClients)
	ckpt := filepath.Join(t.TempDir(), "global.ckpt")

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Delay every server-side read of the first accepted connection: each
	// round takes >= 2s, giving the drain window observable width.
	ln := faultnet.Listen(inner, func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{Kind: faultnet.Delay, Delay: 2 * time.Second}
		}
		return faultnet.Plan{}
	})
	reg := telemetry.NewRegistry()
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:     numClients,
		Rounds:         rounds,
		Defense:        bed.defense("none"),
		InitialState:   bed.initialState(),
		IOTimeout:      30 * time.Second,
		CheckpointPath: ckpt,
		Dataset:        "purchase100",
		Listener:       ln,
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The admin port serves /healthz and the process-scoped series (the
	// clients' drain waits); the server's own series are read from reg.
	admin, err := telemetry.ServeAdmin("127.0.0.1:0", srv.Health, telemetry.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	adminURL := "http://" + admin.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	srvOut := make(chan error, 1)
	var finalState []float64
	go func() {
		state, err := srv.Run(ctx)
		finalState = state
		srvOut <- err
	}()

	clientCtx, clientCancel := context.WithCancel(context.Background())
	defer clientCancel()
	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Clients are expected to be interrupted by the drain; their
			// terminal error (canceled mid-backoff) is not asserted.
			_, _ = flnet.RunClient(clientCtx, flnet.ClientConfig{
				Addr:        srv.Addr().String(),
				Trainer:     bed.trainer(id),
				Defense:     bed.defense("none"),
				MaxRetries:  5,
				BaseBackoff: 20 * time.Millisecond,
			})
		}(id)
	}

	waitCheckpointRound(t, srv, 1)
	shutdownDone := make(chan error, 1)
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), time.Minute)
	defer shutdownCancel()
	go func() { shutdownDone <- srv.Shutdown(shutdownCtx) }()

	// The in-flight round has >= 2s left (the delayed connection), so the
	// draining window is observable over real HTTP.
	if status := pollHealthz(t, adminURL, "draining", 15*time.Second); status != "draining" {
		t.Fatalf("/healthz never reported draining (last %q)", status)
	}

	if err := <-srvOut; !errors.Is(err, flnet.ErrDraining) {
		t.Fatalf("Run should return ErrDraining, got %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if len(finalState) == 0 {
		t.Fatal("drained Run should still return the partial global state")
	}
	if status := pollHealthz(t, adminURL, "drained", 10*time.Second); status != "drained" {
		t.Fatalf("/healthz should report drained after the drain, got %q", status)
	}
	h := srv.Health()
	if h.CheckpointRound < 1 {
		t.Fatalf("drain should leave a durable checkpoint, got round %d", h.CheckpointRound)
	}

	// Clients received drain frames and backed off politely before this
	// test cancels them; the counter increments before the back-off sleep.
	waitMetric(t, adminURL, "dinar_flnet_client_drain_waits_total", 1, 15*time.Second)
	clientCancel()
	wg.Wait()

	// Telemetry consistency after the storm: drain notices were sent,
	// every live client is gone, and round accounting never went negative.
	tel := flnet.NewMetrics(reg)
	if n := tel.DrainNotices.Value(); n < 1 {
		t.Fatalf("drain notices counter should be positive: %v", n)
	}
	if n := tel.LiveClients.Value(); n != 0 {
		t.Fatalf("live clients gauge should be 0 after the drain, got %v", n)
	}
	if started, completed := tel.RoundsStarted.Value(), tel.RoundsCompleted.Value(); started < completed {
		t.Fatalf("rounds started (%v) < completed (%v)", started, completed)
	}

	// The drained checkpoint resumes: a fresh server picks up at the
	// drained round and finishes the federation.
	ss, addr := startIncarnation(t, bed, "127.0.0.1:0", ckpt, rounds, false)
	resumedFrom := ss.srv.StartRound()
	if resumedFrom < 1 {
		t.Fatalf("resumed server should start past round 0, got %d", resumedFrom)
	}
	handles := make([]*clientHandle, numClients)
	for id := 0; id < numClients; id++ {
		handles[id] = startClient(bed, addr, bed.trainer(id), false)
	}
	for id, h := range handles {
		if err := <-h.done; err != nil {
			t.Fatalf("resumed client %d: %v", id, err)
		}
		h.cancel()
	}
	if err := <-ss.out; err != nil {
		t.Fatalf("resumed federation: %v", err)
	}
	ss.cancel()

	admin.Close() //nolint:errcheck // the deferred Close is the backstop
	if err := guard.Check(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// pollHealthz GETs /healthz until it reports want (or the deadline
// passes), returning the last observed status.
func pollHealthz(t *testing.T, base, want string, wait time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(wait)
	last := ""
	for time.Now().Before(deadline) {
		resp, err := httpClient.Get(base + "/healthz")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		h, err := telemetry.DecodeHealth(body)
		if err != nil {
			t.Fatalf("healthz decode: %v (%s)", err, body)
		}
		last = h.Status
		if last == want {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
	return last
}

// fetchMetrics GETs and parses /metrics.
func fetchMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return ParseMetrics(string(body))
}

// waitMetric polls /metrics until name reaches at least min.
func waitMetric(t *testing.T, base, name string, min float64, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		if v := fetchMetrics(t, base)[name]; v >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %v (at %v)", name, min, fetchMetrics(t, base)[name])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPrivateStoreSurvivesClientRestart covers the client half of the
// durable-checkpoint story: a DINAR client persists its private-layer
// store after every round (via the AfterRound hook), and a restarted
// client process restores exactly that store from the newest intact
// generation.
func TestPrivateStoreSurvivesClientRestart(t *testing.T) {
	const (
		numClients = 2
		rounds     = 3
		trackedID  = 1
	)
	guard := leakcheck.New()
	bed := newSoakBed(t, numClients)
	priv := filepath.Join(t.TempDir(), "private.ckpt")

	ss, addr := startIncarnation(t, bed, "127.0.0.1:0", "", rounds, false)
	defer ss.cancel()

	type storeExporter interface {
		ExportStore(clientID int) map[int][]float64
		ImportStore(clientID int, layers map[int][]float64) error
	}
	defs := make([]fl.Defense, numClients)
	var wg sync.WaitGroup
	errCh := make(chan error, numClients)
	for id := 0; id < numClients; id++ {
		defs[id] = bed.defense("dinar")
		cfg := flnet.ClientConfig{
			Addr:        addr,
			Trainer:     bed.trainer(id),
			Defense:     defs[id],
			MaxRetries:  5,
			BaseBackoff: 20 * time.Millisecond,
		}
		if id == trackedID {
			store := defs[id].(storeExporter)
			cfg.AfterRound = func(round int) {
				err := checkpoint.SavePrivateFile(priv, &checkpoint.PrivateLayers{
					ClientID: trackedID,
					Round:    round,
					Layers:   store.ExportStore(trackedID),
				})
				if err != nil {
					errCh <- fmt.Errorf("private checkpoint after round %d: %w", round, err)
				}
			}
		}
		wg.Add(1)
		go func(cfg flnet.ClientConfig) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if _, err := flnet.RunClient(ctx, cfg); err != nil {
				errCh <- err
			}
		}(cfg)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := <-ss.out; err != nil {
		t.Fatalf("federation: %v", err)
	}
	ss.cancel()

	// The chain retained one generation per round (bounded by
	// DefaultRetain): the head plus up to DefaultRetain-1 siblings.
	siblings, err := filepath.Glob(priv + ".g*")
	if err != nil {
		t.Fatal(err)
	}
	if len(siblings) != checkpoint.DefaultRetain-1 {
		t.Fatalf("retention kept %d sibling generations, want %d: %v", len(siblings), checkpoint.DefaultRetain-1, siblings)
	}

	// "Restart" the client: a fresh defense instance restores the store
	// from the newest intact generation and must hold exactly the layers
	// the old process last persisted.
	loaded, skipped, err := checkpoint.LoadLatestValidPrivate(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("no generation should be corrupt, skipped %v", skipped)
	}
	if loaded.ClientID != trackedID || loaded.Round != rounds-1 {
		t.Fatalf("loaded store is for client %d round %d, want client %d round %d",
			loaded.ClientID, loaded.Round, trackedID, rounds-1)
	}
	want := defs[trackedID].(storeExporter).ExportStore(trackedID)
	if len(want) == 0 {
		t.Fatal("the DINAR store should hold private layers after training")
	}
	restarted := bed.defense("dinar").(storeExporter)
	if err := restarted.ImportStore(trackedID, loaded.Layers); err != nil {
		t.Fatal(err)
	}
	if got := restarted.ExportStore(trackedID); !reflect.DeepEqual(got, want) {
		t.Fatal("restored private store differs from the live store")
	}

	// Corrupt the head: the restart must fall back to the previous intact
	// generation (round rounds-2) instead of failing.
	if err := CorruptFile(priv, soakSeed); err != nil {
		t.Fatal(err)
	}
	fallback, skipped, err := checkpoint.LoadLatestValidPrivate(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 {
		t.Fatalf("the corrupt head should be skipped, got %v", skipped)
	}
	if fallback.Round != rounds-2 {
		t.Fatalf("fallback generation is round %d, want %d", fallback.Round, rounds-2)
	}

	if err := guard.Check(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = os.Remove(priv)
}
