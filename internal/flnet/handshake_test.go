package flnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestWireNegotiationByHand is the capability-intersection acceptance
// matrix. The shipping client advertises everything, so the peers that
// advertise less write their Hello by hand: against a server offering the
// full codec stack, each must be acked with exactly the intersection (a
// peer advertising nothing gets no ack and raw float64 frames) and then
// served a whole federation under the codec that intersection selects.
func TestWireNegotiationByHand(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	const (
		rounds = 3
		dim    = 64
	)
	peers := []struct {
		name             string
		caps, negotiated uint32
	}{
		{"full codecs", ClientCaps, CapBinary | CapFlate | CapQuantInt8 | CapTopK | CapDelta},
		{"lossless subset", CapBinary | CapFlate | CapDelta, CapBinary | CapFlate | CapDelta},
		{"binary only", CapBinary, CapBinary},
		{"extras without binary", CapFlate | CapDelta, 0},
		{"no capabilities", 0, 0},
	}
	srv, err := NewServer(ServerConfig{
		NumClients:   len(peers),
		Rounds:       rounds,
		Defense:      boundDefense(t, dim),
		InitialState: make([]float64, dim),
		Streaming:    true,
		IOTimeout:    20 * time.Second,
		Compress:     true,
		Quantize:     "int8",
		TopK:         0.5,
		Delta:        true,
		QuantSeed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	errs := make(chan error, len(peers))
	for id, peer := range peers {
		go func() {
			errs <- func() error {
				conn, err := srv.Pipe(ctx)
				if err != nil {
					return err
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(30 * time.Second))
				hello := &Message{Kind: KindHello, ClientID: id, Version: ProtocolVersion, LastRound: -1, WireCaps: peer.caps}
				if err := WriteMessage(conn, hello); err != nil {
					return err
				}
				var codec *Codec
				anchors := &wireAnchors{round: -1, pendRound: -1}
				msg := &Message{}
				if peer.negotiated != 0 {
					if err := ReadMessageWith(conn, msg, nil); err != nil {
						return err
					}
					if msg.Kind != KindWire || msg.WireCaps != peer.negotiated {
						t.Errorf("%s: first frame %v with caps %#x, want a wire ack with %#x", peer.name, msg.Kind, msg.WireCaps, peer.negotiated)
					}
					codec = NewCodec(msg.WireCaps, msg.QuantSeed, msg.TopK, anchors.base)
				}
				for round := 0; ; round++ {
					// Without an ack the very first frame must already be the
					// round-0 broadcast, readable with no codec at all.
					msg.State = anchors.spare()
					if err := ReadMessageWith(conn, msg, codec); err != nil {
						return err
					}
					if msg.Kind == KindDone {
						if round != rounds {
							t.Errorf("%s: done after %d rounds, want %d", peer.name, round, rounds)
						}
						return nil
					}
					if msg.Kind != KindGlobal || msg.Round != round || len(msg.State) != dim {
						t.Errorf("%s: frame %d is %v for round %d with %d values", peer.name, round, msg.Kind, msg.Round, len(msg.State))
						return nil
					}
					anchors.received(round, msg.State)
					update := &Message{Kind: KindUpdate, ClientID: id, Round: round, State: testState(int64(100*id+round), dim), NumSamples: 1}
					if err := WriteMessageWith(conn, update, codec); err != nil {
						return err
					}
					anchors.completed(round)
				}
			}()
		}()
	}
	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != dim {
		t.Fatalf("final state has %d values, want %d", len(final), dim)
	}
	for range peers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, r := range srv.Reports() {
		if len(r.Participants) != len(peers) {
			t.Errorf("round %d aggregated %d updates, want all %d peers", r.Round, len(r.Participants), len(peers))
		}
	}
}
