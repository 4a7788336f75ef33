package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fl"
	"repro/internal/leakcheck"
)

// pipeServer builds a server of numClients over a dim-sized model that opens
// no socket: its clients are piped in.
func pipeServer(t *testing.T, numClients, rounds, dim int) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		NumClients:   numClients,
		Rounds:       rounds,
		Defense:      boundDefense(t, dim),
		InitialState: make([]float64, dim),
		IOTimeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// pipeHello pipes a client into srv and writes its Hello, advertising no
// codec.
func pipeHello(t *testing.T, srv *Server, id int) net.Conn {
	t.Helper()
	conn, err := srv.Pipe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: id, Version: ProtocolVersion, LastRound: -1}); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// answerRound reads a Global for round and answers it with an update.
func answerRound(conn net.Conn, id, round, dim int) error {
	msg, err := ReadMessage(conn)
	if err != nil {
		return err
	}
	if msg.Kind != KindGlobal || msg.Round != round {
		return errors.New("want the round's broadcast, got " + msg.Kind.String())
	}
	return WriteMessage(conn, &Message{Kind: KindUpdate, ClientID: id, Round: round, State: testState(int64(id), dim), NumSamples: 1})
}

// TestPipeContract pins Server.Pipe: clients piped in before Run starts
// join the cohort and finish the federation, and once Run has returned Pipe
// fails at once with ErrNotRunning.
func TestPipeContract(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const numClients, dim = 2, 16
	srv := pipeServer(t, numClients, 1, dim)
	conns := make([]net.Conn, numClients)
	for id := range conns {
		conns[id] = pipeHello(t, srv, id)
		defer conns[id].Close()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Health().RegisteredClients < numClients; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d piped clients registered before Run", srv.Health().RegisteredClients, numClients)
		}
	}
	errs := make(chan error, numClients)
	for id, conn := range conns {
		go func() {
			errs <- func() error {
				if err := answerRound(conn, id, 0, dim); err != nil {
					return err
				}
				if msg, err := ReadMessage(conn); err != nil || msg.Kind != KindDone {
					return errors.New("no Done after the last round")
				}
				return nil
			}()
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := srv.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for range conns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if r := srv.Reports(); len(r) != 1 || len(r[0].Participants) != numClients {
		t.Fatalf("reports %+v, want one round aggregating both piped clients", r)
	}

	start := time.Now()
	if _, err := srv.Pipe(ctx); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Pipe after Run returned: want ErrNotRunning, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Pipe after Run returned took %s to fail", d)
	}
}

// TestPipeIntoDrainingServerReadsDrain: a client piped into a server that is
// draining, with Run still finishing a round, reads a drain notice, which
// sends it to its drain budget instead of its failure budget.
func TestPipeIntoDrainingServerReadsDrain(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const dim = 16
	srv := pipeServer(t, 1, 2, dim)
	held := pipeHello(t, srv, 0)
	defer held.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		runErr <- err
	}()
	// Client 0 holds round 0's update, so the drain waits on the round.
	msg, err := ReadMessage(held)
	if err != nil || msg.Kind != KindGlobal {
		t.Fatalf("held client: want round 0's broadcast, got %v", err)
	}
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); srv.Health().Status != "draining"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
	}

	last := -1
	_, serr := runSession(ctx, ClientConfig{Dial: srv.Pipe, Trainer: idleTrainer(0), IOTimeout: 30 * time.Second},
		&last, &wireAnchors{round: -1, pendRound: -1})
	if serr == nil || !serr.drain || serr.retryAfter <= 0 {
		t.Fatalf("client piped into a draining server: %+v, want a drain notice with a back-off", serr)
	}

	if err := WriteMessage(held, &Message{Kind: KindUpdate, ClientID: 0, Round: 0, State: testState(0, dim), NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ReadMessage(held); err != nil || msg.Kind != KindDrain {
		t.Fatalf("held client after round 0: want a drain notice, got %v", err)
	}
	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("Run: want ErrDraining, got %v", err)
	}
}

// idleTrainer is a client that is turned away before it trains.
type idleTrainer int

func (id idleTrainer) ClientID() int { return int(id) }
func (idleTrainer) RunRound(int, []float64, fl.Defense) (*fl.Update, error) {
	return nil, errors.New("idle trainer asked to train")
}
func (idleTrainer) Install([]float64) error { return nil }

// TestPipeRunExitHammer races concurrent Pipes against Run's exit, by
// cancellation and by drain in turn: every Pipe refused fails with
// ErrNotRunning, every connection handed out is answered or closed without
// its client waiting out an IO timeout, and Run joins everything it started.
func TestPipeRunExitHammer(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	const (
		dialers    = 4
		numClients = 256
		dim        = 4
		maxDials   = 100 // per dialer and iteration
		ioTimeout  = 30 * time.Second
	)
	iterations := 200
	if testing.Short() {
		iterations = 50
	}
	def := boundDefense(t, dim)
	for it := 0; it < iterations; it++ {
		srv, err := NewServer(ServerConfig{
			NumClients: numClients, Rounds: 1, Defense: def,
			InitialState: make([]float64, dim), IOTimeout: ioTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan struct{})
		go func() {
			defer close(runDone)
			srv.Run(ctx) //nolint:errcheck // cancelled or drained by design
		}()

		// Each client sends a Hello and reads one frame: a drain notice, a
		// rejection or EOF once the server lets go. Only a timeout fails.
		var clients sync.WaitGroup
		var ids atomic.Int64
		timedOut := make(chan error, 1)
		client := func(conn net.Conn) {
			defer clients.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(ioTimeout / 3))
			hello := &Message{Kind: KindHello, ClientID: int(ids.Add(1)-1) % numClients, Version: ProtocolVersion, LastRound: -1}
			err := WriteMessage(conn, hello)
			if err == nil {
				_, err = ReadMessage(conn)
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				select {
				case timedOut <- err:
				default:
				}
			}
		}
		var dialing sync.WaitGroup
		var first sync.Once
		for d := 0; d < dialers; d++ {
			dialing.Add(1)
			go func() {
				defer dialing.Done()
				// A drain exit writes each registered client its notice
				// first: bound the storm that meanwhile gets turned away.
				for n := 0; n < maxDials; n++ {
					conn, err := srv.Pipe(context.Background())
					if err != nil {
						if !errors.Is(err, ErrNotRunning) {
							t.Errorf("iteration %d: Pipe: want ErrNotRunning, got %v", it, err)
						}
						return
					}
					clients.Add(1)
					go client(conn)
					// The exit lands once the first connection is out, so
					// the rest race it.
					first.Do(func() {
						if it%2 == 0 {
							cancel()
						} else {
							go srv.Shutdown(context.Background()) //nolint:errcheck // Run reports the drain
						}
					})
				}
			}()
		}
		dialing.Wait()
		clients.Wait()
		select {
		case err := <-timedOut:
			t.Fatalf("iteration %d: a piped client waited out its deadline: %v", it, err)
		default:
		}
		select {
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Run did not return", it)
		}
		if _, err := srv.Pipe(context.Background()); !errors.Is(err, ErrNotRunning) {
			t.Fatalf("iteration %d: Pipe after Run returned: want ErrNotRunning, got %v", it, err)
		}
		cancel()
	}
}

// TestRunExitBoundedByIOTimeout: k of a cohort's peers stop reading once
// they have sent their last update, for k = 0…8, and Run's exit, after its
// last round (Done) or after a drain, still returns within one IOTimeout.
// The final notices go out to every peer at once, not one after another,
// and Run joins every writer before it returns.
func TestRunExitBoundedByIOTimeout(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const numClients = 8
	for _, drain := range []bool{false, true} {
		for k := 0; k <= numClients; k++ {
			name := fmt.Sprintf("done/stalled=%d", k)
			if drain {
				name = fmt.Sprintf("drain/stalled=%d", k)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				stalledExit(t, numClients, k, drain)
			})
		}
	}
}

// stalledExit runs one round for numClients piped peers, the last stalled of
// which never read again after their update, and checks that Run's exit,
// clean or (with drain) requested while the round is in flight, returns
// within IOTimeout plus slack and hands every reading peer its notice.
func stalledExit(t *testing.T, numClients, stalled int, drain bool) {
	const (
		dim       = 16
		ioTimeout = time.Second
		slack     = ioTimeout / 2
	)
	rounds, want := 1, KindDone
	if drain {
		rounds, want = 2, KindDrain
	}
	srv, err := NewServer(ServerConfig{
		NumClients: numClients, Rounds: rounds, Defense: boundDefense(t, dim),
		InitialState: make([]float64, dim), IOTimeout: ioTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, numClients)
	for id := range conns {
		conns[id] = pipeHello(t, srv, id)
		defer conns[id].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	runDone := make(chan outcome, 1)
	go func() {
		_, err := srv.Run(ctx)
		runDone <- outcome{err, time.Now()}
	}()
	for id, conn := range conns {
		if msg, err := ReadMessage(conn); err != nil || msg.Kind != KindGlobal {
			t.Fatalf("client %d: want round 0's broadcast, got %v", id, err)
		}
	}
	shutdown := make(chan error, 1)
	if drain {
		go func() { shutdown <- srv.Shutdown(ctx) }()
		for deadline := time.Now().Add(10 * time.Second); srv.Health().Status != "draining"; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("server never started draining")
			}
		}
	}
	for id, conn := range conns {
		if err := WriteMessage(conn, &Message{Kind: KindUpdate, ClientID: id, Round: 0, State: testState(int64(id), dim), NumSamples: 1}); err != nil {
			t.Fatalf("client %d: update: %v", id, err)
		}
	}
	start := time.Now()
	var readers sync.WaitGroup
	for id, conn := range conns[:numClients-stalled] {
		readers.Add(1)
		go func() {
			defer readers.Done()
			if msg, err := ReadMessage(conn); err != nil || msg.Kind != want {
				t.Errorf("reading client %d: want a %v frame, got %v", id, want, err)
			}
		}()
	}
	out := <-runDone
	readers.Wait()
	if elapsed := out.at.Sub(start); elapsed > ioTimeout+slack {
		t.Errorf("Run's exit took %s with %d stalled peers, want at most IOTimeout %s plus %s", elapsed, stalled, ioTimeout, slack)
	}
	if drain {
		if !errors.Is(out.err, ErrDraining) {
			t.Errorf("drained Run: want ErrDraining, got %v", out.err)
		}
		if err := <-shutdown; err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	} else if out.err != nil {
		t.Errorf("Run: %v", out.err)
	}
}
