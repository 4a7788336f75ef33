package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// acceptCohort waits for NumClients hello frames, bounded by an overall
// RegisterTimeout deadline: once the deadline passes, a quorum of
// MinClients suffices to start the federation.
func (s *Server) acceptCohort(ctx context.Context) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := s.ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(s.cfg.RegisterTimeout)) //nolint:errcheck // best effort
		defer d.SetDeadline(time.Time{})                     //nolint:errcheck
	}
	for {
		if s.draining() {
			return ErrDraining
		}
		s.mu.Lock()
		registered := len(s.live)
		s.mu.Unlock()
		if registered >= s.cfg.NumClients {
			return nil
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if s.draining() {
				return ErrDraining
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if registered >= s.cfg.MinClients {
					s.logf(-1, -1, "flnet: registration deadline passed; starting with %d/%d clients", registered, s.cfg.NumClients)
					return nil
				}
				return fmt.Errorf("flnet: only %d/%d clients registered within %s (quorum %d)",
					registered, s.cfg.NumClients, s.cfg.RegisterTimeout, s.cfg.MinClients)
			}
			return fmt.Errorf("flnet: accept: %w", err)
		}
		if _, err := s.register(conn); err != nil {
			if errors.Is(err, errTooManyRejects) {
				return err
			}
		}
	}
}

// errTooManyRejects aborts registration once maxRejects attempts failed.
var errTooManyRejects = errors.New("flnet: too many rejected registration attempts")

// maxRejects caps rejected registration attempts (malformed hellos, protocol
// version mismatches, duplicate ids) so a misbehaving peer cannot keep the
// accept loop spinning forever. Connections shed by admission control or
// turned away during a drain do not count.
func (s *Server) maxRejects() int { return 2*s.cfg.NumClients + 8 }

// drainNotice is the frame that tells a peer to come back later: sent to
// every live client by a draining server, and to registrants it turns away
// (draining, or shed by admission control).
func drainNotice() *Message {
	return &Message{Kind: KindDrain, RetryAfterMs: int(defaultDrainRetryAfter / time.Millisecond)}
}

// register reads and validates one Hello frame. On success the session is
// added to the live set; on failure the registrant gets a KindError frame,
// the connection is closed, and the reject counter advances.
func (s *Server) register(conn net.Conn) (*session, error) {
	reject := func(reason string) error {
		s.sendError(conn, reason)
		conn.Close()
		s.mu.Lock()
		s.rejects++
		tooMany := s.rejects > s.maxRejects()
		s.mu.Unlock()
		s.tel.RegistrationsRejected.Inc()
		s.logf(-1, -1, "flnet: rejected registrant from %v: %s", conn.RemoteAddr(), reason)
		if tooMany {
			return fmt.Errorf("%w (%d)", errTooManyRejects, s.maxRejects())
		}
		return fmt.Errorf("flnet: rejected registrant: %s", reason)
	}

	conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	msg, err := ReadHello(conn)
	if err != nil {
		return nil, reject("malformed registration: want a hello frame")
	}
	if msg.Version != ProtocolVersion {
		return nil, reject(fmt.Sprintf("protocol version %d not supported, server speaks %d", msg.Version, ProtocolVersion))
	}
	if msg.ClientID < 0 || msg.ClientID >= s.cfg.NumClients {
		return nil, reject(fmt.Sprintf("client id %d outside [0,%d)", msg.ClientID, s.cfg.NumClients))
	}
	s.mu.Lock()
	_, dup := s.live[msg.ClientID]
	s.mu.Unlock()
	if dup {
		return nil, reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
	}
	sess := &session{conn: conn, clientID: msg.ClientID, lastRound: msg.LastRound, anchor: msg.LastRound}
	// Codec negotiation: the intersection of the server's offer and the
	// client's advertised capabilities. A peer that advertises nothing gets
	// no ack and a codec-free session. The ack MUST be written before the
	// session becomes visible to the round loop — a concurrently sampled
	// cohort could otherwise race a coded Global ahead of the ack.
	if caps := negotiateCaps(s.offerCaps, msg.WireCaps); caps != 0 {
		ack := &Message{Kind: KindWire, Version: ProtocolVersion, WireCaps: caps,
			QuantSeed: s.cfg.QuantSeed, TopK: s.cfg.TopK}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
		if err := WriteMessage(conn, ack); err != nil {
			conn.Close()
			return nil, fmt.Errorf("flnet: wire ack to client %d: %w", msg.ClientID, err)
		}
		sess.codec = NewCodec(caps, s.cfg.QuantSeed, s.cfg.TopK, s.sessionBase(sess))
	}
	s.mu.Lock()
	if _, dup := s.live[msg.ClientID]; dup {
		s.mu.Unlock()
		// Lost the insert race against a concurrent registration for the
		// same id. An error frame carries no state, so it reads the same
		// under whatever codec was just acked.
		return nil, reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
	}
	s.live[msg.ClientID] = sess
	s.tel.LiveClients.Set(int64(len(s.live)))
	s.mu.Unlock()
	return sess, nil
}

// acceptRejoins keeps registering clients after the initial cohort formed,
// so an evicted client can reconnect and be resynced into the current
// round. Registrations are validated concurrently so one stalled hello
// cannot head-of-line-block every other reconnect, and bounded by regSem:
// a connection past the bound is shed with a drain frame instead of queueing
// behind a storm of half-open registrants. It stops when the listener closes
// or the reject cap is hit.
func (s *Server) acceptRejoins(ctx context.Context, quit <-chan struct{}) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (run finished or ctx canceled)
		}
		s.mu.Lock()
		tooMany := s.rejects > s.maxRejects()
		s.mu.Unlock()
		if tooMany {
			conn.Close()
			s.logf(-1, -1, "flnet: rejoin acceptor stopping: %v", errTooManyRejects)
			return
		}
		if s.draining() {
			// Shed politely: the registrant should come back after the
			// restart, not burn its retry budget on us.
			s.sendDrain(conn)
			conn.Close()
			continue
		}
		select {
		case s.regSem <- struct{}{}:
		default:
			// Validation capacity exhausted (a storm of half-open
			// registrants); shed instead of queueing behind them.
			s.sendDrain(conn)
			conn.Close()
			s.tel.AdmissionShed.Inc()
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() { <-s.regSem }()
			// Abort a half-open registration the moment the run winds
			// down: closing the conn unblocks register's reads so the
			// acceptor join in Run never waits out an IO timeout.
			regDone := make(chan struct{})
			defer close(regDone)
			go func() {
				select {
				case <-quit:
					conn.Close()
				case <-regDone:
				}
			}()
			sess, err := s.register(conn)
			if err != nil {
				return
			}
			s.tel.Rejoins.Inc()
			s.logf(-1, sess.clientID, "flnet: client %d rejoined (last completed round %d)", sess.clientID, sess.lastRound)
			select {
			case s.joinCh <- sess:
			case <-quit:
				sess.conn.Close()
			case <-ctx.Done():
				sess.conn.Close()
			}
		}(conn)
	}
}

// sendDrain tells one connection the server is draining or shedding load.
func (s *Server) sendDrain(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	// Best effort: the connection is being turned away either way.
	_ = WriteMessage(conn, drainNotice())
	s.tel.DrainNotices.Inc()
}

func (s *Server) sendError(conn net.Conn, text string) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	// Best effort: the registrant is being rejected anyway.
	_ = WriteMessage(conn, &Message{Kind: KindError, Err: text})
}
