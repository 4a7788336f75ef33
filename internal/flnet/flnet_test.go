package flnet

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/optim"
)

func TestWireRoundTrip(t *testing.T) {
	msg := &Message{
		Kind:       KindUpdate,
		ClientID:   3,
		Round:      7,
		State:      []float64{1.5, -2.25, 0},
		NumSamples: 42,
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != msg.Kind || got.ClientID != 3 || got.Round != 7 || got.NumSamples != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range msg.State {
		if got.State[i] != msg.State[i] {
			t.Fatal("state corrupted")
		}
	}
}

func TestWireRejectsBadFrames(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("accepted truncated header")
	}
	// Zero-length frame.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("accepted zero-length frame")
	}
	// Oversized frame.
	if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("accepted oversized frame")
	}
	// Garbage payload.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3})); err == nil {
		t.Fatal("accepted garbage payload")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindHello, KindGlobal, KindUpdate, KindDone, KindError} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

// federation spins up a real TCP server plus numClients goroutine clients
// and runs the complete protocol.
func federation(t *testing.T, defenseName string, numClients, rounds int) ([]float64, []*fl.Client) {
	chaos.GuardTest(t, 10*time.Second)
	t.Helper()
	const seed = 5
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = 400
	ds, err := data.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	split := data.NewFLSplit(ds, rand.New(rand.NewSource(seed)))
	shards, err := data.PartitionIID(split.Train, numClients, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}

	newDef := func() fl.Defense {
		d, err := defense.New(defenseName, seed, numClients)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	m0, err := model.Build(spec, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		t.Fatal(err)
	}
	serverDef := newDef()
	if err := serverDef.Bind(fl.InfoOf(m0)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		NumClients:   numClients,
		Rounds:       rounds,
		Defense:      serverDef,
		InitialState: m0.StateVector(),
		IOTimeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type serverOut struct {
		state []float64
		err   error
	}
	srvCh := make(chan serverOut, 1)
	go func() {
		state, err := srv.Run(ctx)
		srvCh <- serverOut{state: state, err: err}
	}()

	trainers := make([]*fl.Client, numClients)
	var wg sync.WaitGroup
	errCh := make(chan error, numClients)
	for i := 0; i < numClients; i++ {
		m, err := model.Build(spec, rand.New(rand.NewSource(seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		trainer, err := fl.NewClient(i, m, shards[i], optim.NewSGD(0.1, 0), 32, 1,
			rand.New(rand.NewSource(seed+100+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		trainers[i] = trainer
		clientDef := newDef()
		if err := clientDef.Bind(fl.InfoOf(m)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(trainer *fl.Client, def fl.Defense) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr:    srv.Addr().String(),
				Trainer: trainer,
				Defense: def,
			})
			if err != nil {
				errCh <- err
			}
		}(trainer, clientDef)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	out := <-srvCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.state, trainers
}

func TestFederationOverTCPNoDefense(t *testing.T) {
	state, trainers := federation(t, "none", 3, 2)
	if len(state) == 0 {
		t.Fatal("empty final state")
	}
	// Final state must differ from a fresh model (training happened).
	fresh, _ := model.Build(data.Registry["purchase100"], rand.New(rand.NewSource(7)))
	if len(state) != fresh.NumState() {
		t.Fatalf("state length %d, want %d", len(state), fresh.NumState())
	}
	for _, trainer := range trainers {
		if trainer.Model == nil {
			t.Fatal("trainer lost its model")
		}
	}
}

func TestFederationOverTCPDINAR(t *testing.T) {
	state, trainers := federation(t, "dinar", 3, 3)
	// With DINAR the final models of clients differ from the global state at
	// the private layer: each trainer restored its own private copy.
	spec := data.Registry["purchase100"]
	m, err := model.Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	spans := m.Spans()
	sp := spans[len(spans)-2]
	for i, trainer := range trainers {
		local := trainer.Model.StateVector()
		same := 0
		for j := sp.Offset; j < sp.Offset+sp.Len; j++ {
			if local[j] == state[j] {
				same++
			}
		}
		if same > sp.Len/10 {
			t.Fatalf("client %d private layer matches obfuscated global (%d/%d)", i, same, sp.Len)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{NumClients: 0, Rounds: 1, Defense: defense.NewNone(), InitialState: []float64{1}}); err == nil {
		t.Fatal("accepted zero clients")
	}
	if _, err := NewServer(ServerConfig{NumClients: 1, Rounds: 0, Defense: defense.NewNone(), InitialState: []float64{1}}); err == nil {
		t.Fatal("accepted zero rounds")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, InitialState: []float64{1}}); err == nil {
		t.Fatal("accepted nil defense")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, Defense: defense.NewNone()}); err == nil {
		t.Fatal("accepted empty state")
	}
}

func TestClientConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunClient(ctx, ClientConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("accepted nil trainer/defense")
	}
}

func TestClientDialFailure(t *testing.T) {
	spec := data.Registry["purchase100"]
	spec.Records = 50
	ds, _ := data.Generate(spec, 1)
	m, _ := model.Build(spec, rand.New(rand.NewSource(1)))
	trainer, err := fl.NewClient(0, m, ds, optim.NewSGD(0.1, 0), 16, 1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(1)
	if err := d.Bind(fl.InfoOf(m)); err != nil {
		t.Fatal(err)
	}
	// Dial a port that is almost certainly closed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := RunClient(ctx, ClientConfig{Addr: addr, Trainer: trainer, Defense: d, MaxRetries: -1}); err == nil {
		t.Fatal("connected to a closed port")
	}
}

func TestServerRejectsDuplicateClientIDs(t *testing.T) {
	chaos.GuardTest(t, 10*time.Second)
	m0, _ := model.Build(data.Registry["purchase100"], rand.New(rand.NewSource(1)))
	def := defense.NewNone()
	if err := def.Bind(fl.InfoOf(m0)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		NumClients:   2,
		Rounds:       1,
		Defense:      def,
		InitialState: m0.StateVector(),
		IOTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go srv.Run(ctx) //nolint:errcheck // failure surfaces through the dials below

	dial := func(id int) net.Conn {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: id, Version: ProtocolVersion}); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	c1 := dial(0)
	defer c1.Close()
	c2 := dial(0) // duplicate id: must be rejected with an error frame
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := ReadMessage(c2)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	if msg.Kind != KindError {
		t.Fatalf("expected KindError, got %v", msg.Kind)
	}
	cancel()
}

func TestServerSurfacesClientFailureMidRound(t *testing.T) {
	chaos.GuardTest(t, 10*time.Second)
	m0, _ := model.Build(data.Registry["purchase100"], rand.New(rand.NewSource(1)))
	def := defense.NewNone()
	if err := def.Bind(fl.InfoOf(m0)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		NumClients:   1,
		Rounds:       3,
		Defense:      def,
		InitialState: m0.StateVector(),
		IOTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	// Register, receive the first global model, then vanish.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: 0, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err == nil {
		t.Fatal("server should fail when its only client disconnects mid-round")
	}
}

func TestServerSurfacesClientErrorFrame(t *testing.T) {
	chaos.GuardTest(t, 10*time.Second)
	m0, _ := model.Build(data.Registry["purchase100"], rand.New(rand.NewSource(1)))
	def := defense.NewNone()
	if err := def.Bind(fl.InfoOf(m0)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		NumClients:   1,
		Rounds:       1,
		Defense:      def,
		InitialState: m0.StateVector(),
		IOTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: 0, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(conn, &Message{Kind: KindError, Err: "local training exploded"}); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("server error = %v, want the client's message", err)
	}
}
