package flnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/faultnet"
	"repro/internal/fl"
	"repro/internal/kerneltest"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/optim"
)

// The fault tests prove the federation's tolerance guarantees end to end:
// quorum rounds survive killed clients, stragglers are evicted at the
// round deadline and can rejoin, reset connections reconnect with backoff
// without changing the result, and a server restarted from a checkpoint
// converges to the same state as an uninterrupted run.

const fbSeed = 11

// fedBed holds the deterministic data/model fixtures shared by one
// federation test (fresh trainer instances are built per run).
type fedBed struct {
	t          *testing.T
	spec       data.Spec
	shards     []*data.Dataset
	split      *data.FLSplit
	numClients int
}

func newFedBed(t *testing.T, numClients int) *fedBed {
	t.Helper()
	return newFedBedOn(t, "purchase100", numClients)
}

// newFedBedOn is newFedBed on the named tabular dataset.
func newFedBedOn(t *testing.T, dataset string, numClients int) *fedBed {
	t.Helper()
	spec, err := data.Lookup(dataset)
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = 400
	ds, err := data.Generate(spec, fbSeed)
	if err != nil {
		t.Fatal(err)
	}
	split := data.NewFLSplit(ds, rand.New(rand.NewSource(fbSeed)))
	shards, err := data.PartitionIID(split.Train, numClients, rand.New(rand.NewSource(fbSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return &fedBed{t: t, spec: spec, shards: shards, split: split, numClients: numClients}
}

// trainer builds a fresh trainer for client id, identical across runs.
func (b *fedBed) trainer(id int) *fl.Client {
	b.t.Helper()
	m, err := model.Build(b.spec, rand.New(rand.NewSource(fbSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	tr, err := fl.NewClient(id, m, b.shards[id], optim.NewSGD(0.1, 0), 32, 1,
		rand.New(rand.NewSource(fbSeed+100+int64(id))))
	if err != nil {
		b.t.Fatal(err)
	}
	return tr
}

// defense builds and binds a fresh defense instance, identical across runs.
func (b *fedBed) defense(name string) fl.Defense {
	b.t.Helper()
	d, err := defense.New(name, fbSeed, b.numClients)
	if err != nil {
		b.t.Fatal(err)
	}
	m, err := model.Build(b.spec, rand.New(rand.NewSource(fbSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		b.t.Fatal(err)
	}
	return d
}

// initialState is the federation's round-0 global model.
func (b *fedBed) initialState() []float64 {
	b.t.Helper()
	m, err := model.Build(b.spec, rand.New(rand.NewSource(fbSeed+2)))
	if err != nil {
		b.t.Fatal(err)
	}
	return m.StateVector()
}

// startServer launches cfg's server on a fault-injecting listener and
// returns the server plus a channel carrying Run's outcome.
type serverOutcome struct {
	state []float64
	err   error
}

func startServer(t *testing.T, ctx context.Context, cfg ServerConfig, schedule faultnet.Schedule) (*Server, *faultnet.Listener, chan serverOutcome) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.Listen(inner, schedule)
	cfg.Listener = ln
	srv, err := NewServer(cfg)
	if err != nil {
		inner.Close()
		t.Fatal(err)
	}
	out := make(chan serverOutcome, 1)
	go func() {
		state, err := srv.Run(ctx)
		out <- serverOutcome{state: state, err: err}
	}()
	return srv, ln, out
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestQuorumSurvivesKilledClient is the acceptance scenario: a federation
// of 4 clients with MinClients=3 completes every round even though one
// client dies mid-training in round 0.
func TestQuorumSurvivesKilledClient(t *testing.T) {
	const (
		numClients = 4
		rounds     = 3
		killedID   = 3
	)
	bed := newFedBed(t, numClients)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    numClients,
		MinClients:    3,
		Rounds:        rounds,
		RoundDeadline: 10 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
	}, nil)

	// The doomed client registers, receives the round-0 global model, and
	// dies while "training" (it never sends an update).
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: killedID, Version: ProtocolVersion, LastRound: -1}); err != nil {
			t.Error(err)
			return
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		if _, err := ReadMessage(conn); err != nil {
			t.Errorf("killed client never saw round 0: %v", err)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, numClients)
	for id := 0; id < numClients-1; id++ {
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
	<-killed
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	reports := srv.Reports()
	if len(reports) != rounds {
		t.Fatalf("got %d round reports, want %d", len(reports), rounds)
	}
	if !containsID(reports[0].Dropped, killedID) {
		t.Fatalf("round 0 report should record client %d as dropped: %+v", killedID, reports[0])
	}
	if reports[0].Err == nil {
		t.Fatal("round 0 report should join the killed client's error")
	}
	for _, r := range reports {
		if len(r.Participants) < 3 {
			t.Fatalf("round %d aggregated %d updates, want >= quorum 3", r.Round, len(r.Participants))
		}
	}
}

// TestRoundDeadlineEvictsStraggler proves deadline-based eviction: a
// client whose connection is artificially slow misses the round deadline,
// the round aggregates with the quorum, and the straggler is dropped.
func TestRoundDeadlineEvictsStraggler(t *testing.T) {
	const stragglerID = 1
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The first accepted connection (the straggler registers first, see
	// below) delays every server-side read by 2s, far past the deadline.
	schedule := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{Kind: faultnet.Delay, Delay: 2 * time.Second}
		}
		return faultnet.Plan{}
	}
	srv, ln, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    2,
		MinClients:    1,
		Rounds:        1,
		RoundDeadline: 400 * time.Millisecond,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
	}, schedule)

	var wg sync.WaitGroup
	runClient := func(id int) {
		defer wg.Done()
		// The straggler's outcome is timing-dependent (it may rejoin just
		// in time for Done or give up against the closed listener), so
		// only the fast client's error is asserted.
		_, err := RunClient(ctx, ClientConfig{
			Addr:        srv.Addr().String(),
			Trainer:     bed.trainer(id),
			Defense:     bed.defense("none"),
			MaxRetries:  2,
			BaseBackoff: 20 * time.Millisecond,
		})
		if id != stragglerID && err != nil {
			t.Errorf("client %d: %v", id, err)
		}
	}
	wg.Add(1)
	go runClient(stragglerID)
	for ln.Accepted() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	wg.Add(1)
	go runClient(0)

	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	reports := srv.Reports()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	if !containsID(reports[0].Dropped, stragglerID) {
		t.Fatalf("straggler should be dropped at the deadline: %+v", reports[0])
	}
	if !containsID(reports[0].Participants, 0) {
		t.Fatalf("fast client should have participated: %+v", reports[0])
	}
	wg.Wait()
}

// handshakeBytes returns the exact byte count a default RunClient
// registration crosses on the wire — the capability-advertising hello plus
// the server's KindWire ack (a default server offers CapBinary alone) — so
// DropAfter plans can kill a connection on the first post-registration
// byte.
func handshakeBytes(t *testing.T, clientID int) int {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindHello, ClientID: clientID, Version: ProtocolVersion, LastRound: -1, WireCaps: ClientCaps}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, &Message{Kind: KindWire, Version: ProtocolVersion, WireCaps: CapBinary}); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestDroppedClientRejoinsMidRound proves reconnect-and-resync: client 1's
// first connection dies right after registration, the round blocks below
// quorum, and the client's reconnection (with backoff) is resynced into
// the *current* round, which then completes with the full cohort.
func TestDroppedClientRejoinsMidRound(t *testing.T) {
	const rejoinID = 1
	// The rejoin machinery spawns acceptor and registration goroutines;
	// the guard proves the run winds all of them down.
	leakcheck.GuardTest(t, 10*time.Second)
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Compute the exact wire size of client 1's registration handshake so
	// its first connection dies on the very next byte after it.
	handshake := handshakeBytes(t, rejoinID)
	schedule := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{Kind: faultnet.DropAfter, Bytes: handshake}
		}
		return faultnet.Plan{}
	}
	srv, ln, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    2,
		MinClients:    2, // full quorum: the round must wait for the rejoin
		Rounds:        2,
		RoundDeadline: 30 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
	}, schedule)

	var retries atomic.Int32
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	runClient := func(id int) {
		defer wg.Done()
		_, err := RunClient(ctx, ClientConfig{
			Addr:        srv.Addr().String(),
			Trainer:     bed.trainer(id),
			Defense:     bed.defense("none"),
			MaxRetries:  5,
			BaseBackoff: 20 * time.Millisecond,
			Logf: func(string, ...any) {
				retries.Add(1)
			},
		})
		if err != nil {
			errCh <- err
		}
	}
	wg.Add(1)
	go runClient(rejoinID)
	for ln.Accepted() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	wg.Add(1)
	go runClient(0)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	if retries.Load() == 0 {
		t.Fatal("the dropped client should have logged at least one retry")
	}
	reports := srv.Reports()
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	if !containsID(reports[0].Dropped, rejoinID) {
		t.Fatalf("round 0 should record the dead first connection: %+v", reports[0])
	}
	if !containsID(reports[0].Participants, rejoinID) {
		t.Fatalf("round 0 should include the rejoined client's update: %+v", reports[0])
	}
	if len(reports[1].Dropped) != 0 {
		t.Fatalf("round 1 should be clean: %+v", reports[1])
	}
	// The cohort's own registrations are not rejoins; the reconnect is.
	if got := srv.tel.Rejoins.Value(); got != 1 {
		t.Fatalf("dinar_flnet_rejoins_total = %d, want 1", got)
	}
}

// resettableRun runs a complete 2-client DINAR federation with the given
// fault schedule and returns the final global state plus each client's
// personalized accuracy.
func resettableRun(t *testing.T, bed *fedBed, schedule faultnet.Schedule, retries *atomic.Int32) ([]float64, [2]float64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   2,
		Rounds:       2,
		Defense:      bed.defense("dinar"),
		InitialState: bed.initialState(),
		IOTimeout:    30 * time.Second,
	}, schedule)

	trainers := [2]*fl.Client{bed.trainer(0), bed.trainer(1)}
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr:        srv.Addr().String(),
				Trainer:     trainers[id],
				Defense:     bed.defense("dinar"),
				MaxRetries:  5,
				BaseBackoff: 20 * time.Millisecond,
				Logf: func(string, ...any) {
					if retries != nil {
						retries.Add(1)
					}
				},
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
		t.Fatalf("federation failed: %v", out.err)
	}
	var accs [2]float64
	for id, tr := range trainers {
		acc, _, err := tr.Evaluate(bed.split.Test)
		if err != nil {
			t.Fatal(err)
		}
		accs[id] = acc
	}
	return out.state, accs
}

// TestResetClientReconnectsWithSameResult is the acceptance scenario: a
// client whose connection is reset reconnects with backoff and the
// federation finishes with exactly the personalized accuracy (and global
// state) of an undisturbed run.
func TestResetClientReconnectsWithSameResult(t *testing.T) {
	bed := newFedBed(t, 2)

	wantState, wantAccs := resettableRun(t, bed, nil, nil)

	// Fault run: the first accepted connection is reset before the server
	// can even read its hello, so one client must redial with backoff.
	var retries atomic.Int32
	schedule := func(i int) faultnet.Plan {
		if i == 0 {
			return faultnet.Plan{Kind: faultnet.Reset}
		}
		return faultnet.Plan{}
	}
	gotState, gotAccs := resettableRun(t, bed, schedule, &retries)

	if retries.Load() == 0 {
		t.Fatal("the reset client should have logged at least one retry")
	}
	if len(gotState) != len(wantState) {
		t.Fatalf("state lengths differ: %d vs %d", len(gotState), len(wantState))
	}
	for i := range wantState {
		if gotState[i] != wantState[i] {
			t.Fatalf("global state diverged at %d: %g vs %g", i, gotState[i], wantState[i])
		}
	}
	for id := range wantAccs {
		if gotAccs[id] != wantAccs[id] {
			t.Fatalf("client %d personalized accuracy diverged: %g vs %g", id, gotAccs[id], wantAccs[id])
		}
	}
}

// TestLosslessUploadFallsBackWithoutAnchor drives one client of a lossless
// -compress -delta federation by hand through the one way an upload can
// lose its anchor: the connection drops mid-round, and the peer that redials
// no longer resolves the round's broadcast when it encodes its upload. The
// upload must then go out absolute (the encoder's decision: the server
// would have resolved the anchor), the server must take it, the next
// round's exchange must be deltas in both directions again, and the final
// model must be the codec-free federation's, bit for bit.
func TestLosslessUploadFallsBackWithoutAnchor(t *testing.T) {
	const handID, rounds = 1, 2
	leakcheck.GuardTest(t, 10*time.Second)
	bed := newFedBed(t, 2)
	want := runFedWithWire(t, bed, rounds, nil)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    2,
		MinClients:    2, // the round must wait for the redial
		Rounds:        rounds,
		RoundDeadline: 30 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
		Compress:      true,
		Delta:         true,
	}, nil)
	clientErr := make(chan error, 1)
	go func() {
		_, err := RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), Trainer: bed.trainer(0), Defense: bed.defense("none")})
		clientErr <- err
	}()

	// The hand-driven peer keeps every broadcast it decodes; forget makes
	// its codec miss them all.
	held, forget := map[int][]float64{}, false
	base := func(round int) []float64 {
		if forget {
			return nil
		}
		return held[round]
	}
	// dial registers (retrying while the server still holds the dropped
	// connection's session) and returns the connection and its codec.
	dial := func() (net.Conn, *Codec) {
		t.Helper()
		for {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			hello := &Message{Kind: KindHello, ClientID: handID, Version: ProtocolVersion, LastRound: -1, WireCaps: ClientCaps}
			if err := WriteMessage(conn, hello); err != nil {
				t.Fatal(err)
			}
			ack, err := ReadMessage(conn)
			if err != nil {
				t.Fatal(err)
			}
			if ack.Kind == KindError && strings.Contains(ack.Err, "already registered") {
				conn.Close()
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if ack.Kind != KindWire || ack.WireCaps != CapBinary|CapFlate|CapDelta {
				t.Fatalf("registration answered with %+v", ack)
			}
			return conn, NewCodec(ack.WireCaps, ack.QuantSeed, ack.TopK, base)
		}
	}
	readGlobal := func(conn net.Conn, codec *Codec, round int) *Message {
		t.Helper()
		msg := &Message{}
		if err := ReadMessageWith(conn, msg, codec); err != nil {
			t.Fatal(err)
		}
		if msg.Kind != KindGlobal || msg.Round != round {
			t.Fatalf("got a %v frame for round %d, want the round-%d broadcast", msg.Kind, msg.Round, round)
		}
		held[round] = append([]float64(nil), msg.State...)
		return msg
	}

	conn, codec := dial()
	readGlobal(conn, codec, 0)
	conn.Close() // mid-round: the broadcast arrived, the upload never leaves

	conn, codec = dial()
	defer conn.Close()
	trainer, def := bed.trainer(handID), bed.defense("none")
	for round := 0; round < rounds; round++ {
		global := readGlobal(conn, codec, round)
		u, err := trainer.RunRound(round, global.State, def)
		if err != nil {
			t.Fatal(err)
		}
		forget = round == 0
		frame := binaryFrame(t, &Message{Kind: KindUpdate, ClientID: handID, Round: round, State: u.State, NumSamples: u.NumSamples}, codec)
		forget = false
		wantFlags, wantAnchor := flagState|flagFlate|flagDelta, round
		if round == 0 {
			wantFlags, wantAnchor = flagState, -1 // the floats of an SGD step hold no zero bytes to deflate
		}
		if flags, anchor, _, _ := stateSection(frame); flags != wantFlags || anchor != wantAnchor {
			t.Fatalf("round %d upload has flags %#x anchored on %d, want %#x on %d", round, flags, anchor, wantFlags, wantAnchor)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	done := &Message{}
	if err := ReadMessageWith(conn, done, codec); err != nil || done.Kind != KindDone {
		t.Fatalf("after the last round: %v frame, error %v", done.Kind, err)
	}

	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	if i := kerneltest.FirstDiff(out.state, want); i >= 0 {
		t.Fatalf("state[%d] = %x, the codec-free federation ends on %x", i, math.Float64bits(out.state[i]), math.Float64bits(want[i]))
	}
}

// checkpointRun runs a 2-client defense-"none" federation for the given
// number of rounds against trainers, optionally checkpointing.
func checkpointRun(t *testing.T, bed *fedBed, trainers [2]*fl.Client, rounds int, ckptPath string) (*Server, []float64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:     2,
		Rounds:         rounds,
		Defense:        bed.defense("none"),
		InitialState:   bed.initialState(),
		IOTimeout:      30 * time.Second,
		CheckpointPath: ckptPath,
		Dataset:        "purchase100",
	}, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr:    srv.Addr().String(),
				Trainer: trainers[id],
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
		t.Fatalf("federation failed: %v", out.err)
	}
	return srv, out.state
}

// TestCheckpointResumeMatchesUninterruptedRun is the acceptance scenario:
// a server restarted from its checkpoint resumes at the next round and
// converges to the same final state as an uninterrupted run with the same
// seed.
func TestCheckpointResumeMatchesUninterruptedRun(t *testing.T) {
	const totalRounds = 3
	bed := newFedBed(t, 2)

	// Reference: one uninterrupted federation.
	refTrainers := [2]*fl.Client{bed.trainer(0), bed.trainer(1)}
	_, wantState := checkpointRun(t, bed, refTrainers, totalRounds, "")

	// Interrupted: the server "crashes" after round 1 (it runs a 1-round
	// federation with checkpointing), then a new server process resumes
	// from the snapshot and the same clients reconnect.
	ckpt := t.TempDir() + "/global.ckpt"
	trainers := [2]*fl.Client{bed.trainer(0), bed.trainer(1)}
	first, _ := checkpointRun(t, bed, trainers, 1, ckpt)
	if first.StartRound() != 0 {
		t.Fatalf("fresh server should start at round 0, got %d", first.StartRound())
	}
	resumed, gotState := checkpointRun(t, bed, trainers, totalRounds, ckpt)
	if resumed.StartRound() != 1 {
		t.Fatalf("resumed server should start at round 1, got %d", resumed.StartRound())
	}
	if len(resumed.Reports()) != totalRounds-1 {
		t.Fatalf("resumed server ran %d rounds, want %d", len(resumed.Reports()), totalRounds-1)
	}

	if len(gotState) != len(wantState) {
		t.Fatalf("state lengths differ: %d vs %d", len(gotState), len(wantState))
	}
	for i := range wantState {
		if gotState[i] != wantState[i] {
			t.Fatalf("resumed federation diverged at %d: %g vs %g", i, gotState[i], wantState[i])
		}
	}
	// The personalized models must match too.
	for id := range refTrainers {
		want, _, err := refTrainers[id].Evaluate(bed.split.Test)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := trainers[id].Evaluate(bed.split.Test)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("client %d accuracy diverged after resume: %g vs %g", id, got, want)
		}
	}
}

// TestDuplicateHelloPeerIsEvicted proves the server survives a protocol
// violator: a peer whose hello frame is duplicated registers fine but is
// evicted when the duplicate arrives in place of its round-0 update.
func TestDuplicateHelloPeerIsEvicted(t *testing.T) {
	const dupID = 1
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:    2,
		MinClients:    1,
		Rounds:        1,
		RoundDeadline: 10 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     20 * time.Second,
	}, nil)

	// The violator: its first write (the hello frame) is sent twice.
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer raw.Close()
		conn := faultnet.WrapConn(raw, faultnet.Plan{Kind: faultnet.Duplicate})
		if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: dupID, Version: ProtocolVersion, LastRound: -1}); err != nil {
			t.Error(err)
			return
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		ReadMessage(conn) //nolint:errcheck // round-0 global; the eviction closes the conn afterwards
		ReadMessage(conn) //nolint:errcheck
	}()

	if _, err := RunClient(ctx, ClientConfig{
		Addr:    srv.Addr().String(),
		Trainer: bed.trainer(0),
		Defense: bed.defense("none"),
	}); err != nil {
		t.Fatal(err)
	}
	out := <-srvOut
	if out.err != nil {
		t.Fatalf("federation failed: %v", out.err)
	}
	reports := srv.Reports()
	if !containsID(reports[0].Dropped, dupID) {
		t.Fatalf("duplicate-hello peer should be evicted: %+v", reports[0])
	}
	if reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "unexpected") {
		t.Fatalf("report should explain the protocol violation, got %v", reports[0].Err)
	}
	cancel()
	<-done
}

// TestMalformedRegistrantGetsErrorFrame covers the hardened accept loop:
// garbage registrations receive a KindError frame and count toward the
// reject cap, which aborts registration when exceeded.
func TestMalformedRegistrantGetsErrorFrame(t *testing.T) {
	bed := newFedBed(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   1,
		Rounds:       1,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    20 * time.Second,
	}, nil)

	for i := 0; i <= srv.maxRejects(); i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{0, 0, 0, 3, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		msg, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("malformed registrant %d should receive an error frame, got %v", i, err)
		}
		if msg.Kind != KindError {
			t.Fatalf("want KindError, got %v", msg.Kind)
		}
		conn.Close()
	}
	out := <-srvOut
	if out.err == nil || !strings.Contains(out.err.Error(), "too many rejected") {
		t.Fatalf("server should abort after the reject cap, got %v", out.err)
	}
}

// TestHelloVersionValidated pins the version check: a hello of any protocol
// version but the server's — older or newer — is turned away with an
// explanatory error frame, not half-served.
func TestHelloVersionValidated(t *testing.T) {
	bed := newFedBed(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, _ := startServer(t, ctx, ServerConfig{
		NumClients:   1,
		Rounds:       1,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    20 * time.Second,
	}, nil)

	// 3 is the version whose flate-flagged float sections were one
	// interleaved stream: it would inflate a plane section as garbage. 4
	// read a sparse quantized section's indices as absolute u32s, not gaps.
	for _, version := range []int{1, 3, 4, ProtocolVersion + 1} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: 0, Version: version, WireCaps: ClientCaps}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		msg, err := ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Kind != KindError || !strings.Contains(msg.Err, "version") {
			t.Fatalf("v%d hello: want a version-mismatch error frame, got %+v", version, msg)
		}
	}
	cancel()
}

// TestQuarantineSurvivesReconnect is the Byzantine acceptance scenario: a
// client that uploads a NaN bomb in round 0 is rejected by the screen,
// evicted, and quarantined. Its automatic reconnection (the PR-1 fault
// tolerance path) resyncs it into the federation, but its updates — now
// honest — stay excluded until the penalty expires; only then does it
// participate again.
func TestQuarantineSurvivesReconnect(t *testing.T) {
	const (
		numClients = 3
		rounds     = 4
		poisonerID = 2
	)
	leakcheck.GuardTest(t, 10*time.Second)
	bed := newFedBed(t, numClients)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients: numClients,
		MinClients: numClients, // full quorum: every round waits for the rejoin
		Rounds:     rounds,
		// The deadline only backstops a failed rejoin; quorum rounds
		// normally proceed the moment the rejoined client reports.
		RoundDeadline: 30 * time.Second,
		Defense:       bed.defense("none"),
		InitialState:  bed.initialState(),
		IOTimeout:     30 * time.Second,
		Screen:        fl.ScreenConfig{QuarantineRounds: 2},
	}, nil)

	var wg sync.WaitGroup
	errCh := make(chan error, numClients)
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			def := bed.defense("none")
			if id == poisonerID {
				// Poison round 0 only: the later exclusions prove the
				// quarantine penalty, not continued misbehavior.
				def = adversary.Wrap(def, fbSeed, adversary.Mark(
					adversary.Plan{Kind: adversary.NaNBomb, StopAfter: 1}, poisonerID))
			}
			_, err := RunClient(ctx, ClientConfig{
				Addr:        srv.Addr().String(),
				Trainer:     bed.trainer(id),
				Defense:     def,
				MaxRetries:  5,
				BaseBackoff: 20 * time.Millisecond,
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
		t.Fatalf("federation failed: %v", out.err)
	}
	for i, v := range out.state {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NaN bomb reached the global state at coordinate %d: %g", i, v)
		}
	}

	reports := srv.Reports()
	if len(reports) != rounds {
		t.Fatalf("got %d reports, want %d", len(reports), rounds)
	}
	// Round 0: the poisoned update is rejected, the client evicted.
	if !containsID(reports[0].Rejected, poisonerID) {
		t.Fatalf("round 0 should reject the poisoner: %+v", reports[0])
	}
	if !containsID(reports[0].Dropped, poisonerID) {
		t.Fatalf("round 0 should evict the poisoner: %+v", reports[0])
	}
	if containsID(reports[0].Participants, poisonerID) {
		t.Fatalf("round 0 must not count the poisoner as a participant: %+v", reports[0])
	}
	// Rounds 1-2: the reconnected client reports honest updates but stays
	// excluded while the quarantine penalty lasts.
	for _, r := range reports[1:3] {
		if !containsID(r.Quarantined, poisonerID) {
			t.Fatalf("round %d should quarantine the rejoined poisoner: %+v", r.Round, r)
		}
		if containsID(r.Participants, poisonerID) {
			t.Fatalf("round %d must exclude the quarantined client: %+v", r.Round, r)
		}
		if len(r.Rejected) != 0 {
			t.Fatalf("round %d: honest updates must not count as offenses: %+v", r.Round, r)
		}
	}
	// Round 3: the penalty expired; the client is a full participant again.
	last := reports[rounds-1]
	if !containsID(last.Participants, poisonerID) {
		t.Fatalf("round %d should readmit the client: %+v", last.Round, last)
	}
	if len(last.Quarantined) != 0 || len(last.Rejected) != 0 {
		t.Fatalf("round %d should be clean: %+v", last.Round, last)
	}
}

// TestRegistrationDeadline covers the bounded registration phase: with a
// short IOTimeout the server starts once the quorum registered (instead of
// waiting forever for the full cohort), and fails cleanly below quorum.
func TestRegistrationDeadline(t *testing.T) {
	bed := newFedBed(t, 2)

	t.Run("quorum starts degraded", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv, _, srvOut := startServer(t, ctx, ServerConfig{
			NumClients:   2,
			MinClients:   1,
			Rounds:       1,
			Defense:      bed.defense("none"),
			InitialState: bed.initialState(),
			IOTimeout:    700 * time.Millisecond,
		}, nil)
		// Only client 0 ever shows up.
		if _, err := RunClient(ctx, ClientConfig{
			Addr:      srv.Addr().String(),
			Trainer:   bed.trainer(0),
			Defense:   bed.defense("none"),
			IOTimeout: 20 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		out := <-srvOut
		if out.err != nil {
			t.Fatalf("server should run degraded after the registration deadline: %v", out.err)
		}
	})

	t.Run("below quorum fails", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, _, srvOut := startServer(t, ctx, ServerConfig{
			NumClients:   2,
			Rounds:       1,
			Defense:      bed.defense("none"),
			InitialState: bed.initialState(),
			IOTimeout:    500 * time.Millisecond,
		}, nil)
		out := <-srvOut
		if out.err == nil || !strings.Contains(out.err.Error(), "registered") {
			t.Fatalf("server should fail when no quorum registers, got %v", out.err)
		}
	})
}

// TestRegistrationFailureClosesSessions: when registration fails while the
// cohort is still forming, Run tells the sessions that did register. Canceled,
// it closes them — their clients see the connection end at once instead of
// blocking on an open socket until their own IO timeout. Drained, it returns
// ErrDraining and sends them a drain frame first.
func TestRegistrationFailureClosesSessions(t *testing.T) {
	bed := newFedBed(t, 2)
	for _, tc := range []struct {
		name string
		stop func(context.CancelFunc, *Server)
		want error
	}{
		{"canceled", func(cancel context.CancelFunc, _ *Server) { cancel() }, context.Canceled},
		{"drained", func(_ context.CancelFunc, srv *Server) {
			go srv.Shutdown(context.Background()) //nolint:errcheck // Run reports the outcome
		}, ErrDraining},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv, _, srvOut := startServer(t, ctx, ServerConfig{
				NumClients:   2,
				Rounds:       1,
				Defense:      bed.defense("none"),
				InitialState: bed.initialState(),
				IOTimeout:    30 * time.Second,
			}, nil)

			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: 0, Version: ProtocolVersion}); err != nil {
				t.Fatal(err)
			}
			for srv.Health().RegisteredClients == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			tc.stop(cancel, srv)
			if out := <-srvOut; !errors.Is(out.err, tc.want) {
				t.Fatalf("Run = %v, want %v", out.err, tc.want)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			msg, err := ReadMessage(conn)
			if tc.want == ErrDraining {
				if err != nil || msg.Kind != KindDrain {
					t.Fatalf("registered client read %v, %v; want a drain frame", msg, err)
				}
				_, err = ReadMessage(conn)
			}
			var ne net.Error
			if err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("registered client's read = %v, want the connection closed by the server", err)
			}
		})
	}
}

// TestSilentRegistrantDoesNotStallRegistration: a connection that never
// sends its hello holds only its own registration. The cohort behind it
// registers and the federation runs, long before the silent one's IOTimeout.
func TestSilentRegistrantDoesNotStallRegistration(t *testing.T) {
	bed := newFedBed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, ln, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   2,
		Rounds:       1,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    3 * time.Second,
	}, nil)

	silent, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for ln.Accepted() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := RunClient(ctx, ClientConfig{
				Addr:       srv.Addr().String(),
				Trainer:    bed.trainer(id),
				Defense:    bed.defense("none"),
				IOTimeout:  20 * time.Second,
				MaxRetries: -1,
			}); err != nil {
				errCh <- fmt.Errorf("client %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if out := <-srvOut; out.err != nil {
		t.Fatalf("federation behind a silent registrant failed: %v", out.err)
	}
}
