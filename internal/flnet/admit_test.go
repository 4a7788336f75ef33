package flnet

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestAdmitContract pins Server.Admit, the admission of a client whose Hello
// its caller has already read (the service front door's path): a server
// built with neither Listener nor Addr opens no socket, a client admitted
// before Run starts joins the cohort, and once Run has returned Admit fails
// at once and leaves no goroutine or connection behind.
func TestAdmitContract(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const dim = 16
	srv, err := NewServer(ServerConfig{
		NumClients:   1,
		Rounds:       1,
		Defense:      boundDefense(t, dim),
		InitialState: make([]float64, dim),
		IOTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.ln != nil {
		t.Fatalf("server with neither Listener nor Addr listens on %v", srv.Addr())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close of a server without a listener: %v", err)
	}

	hello := &Message{Kind: KindHello, ClientID: 0, Version: ProtocolVersion, LastRound: -1}
	conn, peer := net.Pipe()
	defer peer.Close()
	if err := srv.Admit(conn, hello); err != nil {
		t.Fatalf("Admit before Run: %v", err)
	}
	// The peer advertised no codec, so there is no ack: the first frame is
	// the round-0 broadcast, then Done after its one update.
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			peer.SetDeadline(time.Now().Add(30 * time.Second))
			msg := &Message{}
			if err := ReadMessageWith(peer, msg, nil); err != nil {
				return err
			}
			if msg.Kind != KindGlobal || msg.Round != 0 {
				return errors.New("first frame is not the round-0 broadcast")
			}
			update := &Message{Kind: KindUpdate, ClientID: 0, Round: 0, State: testState(7, dim), NumSamples: 1}
			if err := WriteMessageWith(peer, update, nil); err != nil {
				return err
			}
			if err := ReadMessageWith(peer, msg, nil); err != nil {
				return err
			}
			if msg.Kind != KindDone {
				return errors.New("no Done after the last round")
			}
			// Run closes every session before it returns.
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				return errors.New("session left open after Run")
			}
			return nil
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := srv.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
	if r := srv.Reports(); len(r) != 1 || len(r[0].Participants) != 1 || r[0].Participants[0] != 0 {
		t.Fatalf("reports %+v, want one round aggregating client 0", r)
	}

	late, latePeer := net.Pipe()
	defer latePeer.Close()
	if err := srv.Admit(late, hello); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Admit after Run returned: want ErrNotRunning, got %v", err)
	}
	// A refused connection stays its caller's: the server wrote nothing to
	// it and holds nothing of it.
	late.Close()
	if _, err := latePeer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused connection: peer read %v, want EOF from the caller's Close", err)
	}
}
