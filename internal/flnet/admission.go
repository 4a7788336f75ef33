package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// awaitCohort is the registration phase. It waits on the acceptor's
// deliveries until NumClients are live; once IOTimeout has passed, a quorum
// of MinClients suffices.
func (s *Server) awaitCohort(ctx context.Context) error {
	timer := time.NewTimer(s.cfg.IOTimeout)
	defer timer.Stop()
	for {
		if _, ok := s.formCohort(s.cfg.NumClients); ok {
			return nil
		}
		select {
		case <-s.joinCh:
			// Already live: the count above sees it.
		case <-timer.C:
			n, ok := s.formCohort(s.cfg.MinClients)
			if !ok {
				return fmt.Errorf("flnet: only %d/%d clients registered within %s (quorum %d)",
					n, s.cfg.NumClients, s.cfg.IOTimeout, s.cfg.MinClients)
			}
			s.logf(-1, -1, "flnet: registration deadline passed; starting with %d/%d clients", n, s.cfg.NumClients)
			return nil
		case <-s.drainCh:
			return ErrDraining
		case <-ctx.Done():
			return ctx.Err()
		case <-s.tooMany:
			return fmt.Errorf("%w (%d)", errTooManyRejects, s.maxRejects())
		}
	}
}

// formCohort returns how many clients are live and whether that is at least
// want. If it is, the cohort is formed: registrations from then on count as
// rejoins.
func (s *Server) formCohort(want int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.live)
	if n >= want {
		s.formed = true
	}
	return n, n >= want
}

// errTooManyRejects aborts registration once maxRejects attempts failed.
var errTooManyRejects = errors.New("flnet: too many rejected registration attempts")

// maxRejects caps rejected registration attempts (malformed hellos, protocol
// version mismatches, duplicate ids) so a misbehaving peer cannot keep the
// acceptor spinning forever. Connections shed by admission control or
// turned away during a drain do not count.
func (s *Server) maxRejects() int { return 2*s.cfg.NumClients + 8 }

// drainNotice is the frame that tells a peer to come back later: sent to
// every live client by a draining server, and to registrants it turns away
// (draining, or shed by admission control).
func drainNotice() *Message {
	return &Message{Kind: KindDrain, RetryAfterMs: int(defaultDrainRetryAfter / time.Millisecond)}
}

// register reads and validates one Hello frame. On success the session is
// added to the live set; on failure (nil) the registrant gets a KindError
// frame, the connection is closed, and the reject counter advances.
func (s *Server) register(conn net.Conn) *session {
	reject := func(reason string) *session {
		s.sendError(conn, reason)
		conn.Close()
		s.mu.Lock()
		s.rejects++
		if s.rejects == s.maxRejects()+1 {
			close(s.tooMany) // stops the acceptor and the registration wait
		}
		s.mu.Unlock()
		s.tel.RegistrationsRejected.Inc()
		s.logf(-1, -1, "flnet: rejected registrant from %v: %s", conn.RemoteAddr(), reason)
		return nil
	}

	conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	msg, err := ReadHello(conn)
	if err != nil {
		return reject("malformed registration: want a hello frame")
	}
	if msg.Version != ProtocolVersion {
		return reject(fmt.Sprintf("protocol version %d not supported, server speaks %d", msg.Version, ProtocolVersion))
	}
	if msg.ClientID < 0 || msg.ClientID >= s.cfg.NumClients {
		return reject(fmt.Sprintf("client id %d outside [0,%d)", msg.ClientID, s.cfg.NumClients))
	}
	s.mu.Lock()
	_, dup := s.live[msg.ClientID]
	s.mu.Unlock()
	if dup {
		return reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
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
			return nil
		}
		sess.codec = NewCodec(caps, s.cfg.QuantSeed, s.cfg.TopK, s.sessionBase(sess))
	}
	s.mu.Lock()
	if _, dup := s.live[msg.ClientID]; dup {
		s.mu.Unlock()
		// Lost the insert race against a concurrent registration for the
		// same id. An error frame carries no state, so it reads the same
		// under whatever codec was just acked.
		return reject(fmt.Sprintf("client id %d already registered", msg.ClientID))
	}
	s.live[msg.ClientID] = sess
	s.tel.LiveClients.Set(int64(len(s.live)))
	rejoin := s.formed
	s.mu.Unlock()
	if rejoin {
		s.tel.Rejoins.Inc()
		s.logf(-1, sess.clientID, "flnet: client %d rejoined (last completed round %d)", sess.clientID, sess.lastRound)
	}
	return sess
}

// accept is the server's one acceptor: it runs for the whole of Run and
// hands every registered session to the round loop on joinCh, the cohort's
// as well as evicted clients' rejoins. Registrations are validated
// concurrently so one stalled hello cannot head-of-line-block the others,
// and bounded by regSem: a connection past the bound is shed with a drain
// frame instead of queueing behind a storm of half-open registrants, as is
// every connection to a draining server. It stops when Run closes the
// listener or the reject cap is hit.
func (s *Server) accept(quit <-chan struct{}) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Run is returning
		}
		select {
		case <-s.tooMany:
			conn.Close()
			s.logf(-1, -1, "flnet: acceptor stopping: %v", errTooManyRejects)
			return
		default:
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
			s.tel.AdmissionShed.Inc()
			s.sendDrain(conn)
			conn.Close()
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
			sess := s.register(conn)
			if sess == nil {
				return
			}
			select {
			case s.joinCh <- sess:
			case <-quit:
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
