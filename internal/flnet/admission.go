package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// ErrRegistrationFull is returned by Admit when regSem, the bound on
// registrations mid-validation, is full: the caller sheds the registrant
// with a drain notice instead of queueing it behind a storm of half-open
// ones.
var ErrRegistrationFull = errors.New("flnet: registration bound full")

// ErrNotRunning is returned by Admit once Run has returned or the reject cap
// has stopped admission.
var ErrNotRunning = errors.New("flnet: server not admitting registrations")

// Admit registers a client whose Hello its caller has already read, as the
// service's front door does. It never blocks: it takes a regSem slot or
// fails at once with ErrRegistrationFull, ErrDraining or ErrNotRunning,
// leaving conn to the caller, who writes the KindDrain or KindError frame.
// On success the server owns conn: validation, the codec ack and the hand-off
// to the round loop run on a goroutine that Run joins. Admit is legal before
// Run starts and refused after it returns.
func (s *Server) Admit(conn net.Conn, hello *Message) error {
	if err := s.reserve(); err != nil {
		return err
	}
	go s.registration(conn, hello)
	return nil
}

// reserve claims a regSem slot for one registrant and counts it in regs,
// which Run joins. Run cancels regCtx under mu before it waits, so no slot
// is claimed once the wait has begun.
func (s *Server) reserve() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.regCtx.Done():
		return ErrNotRunning
	case <-s.tooMany:
		return fmt.Errorf("%w: %w", ErrNotRunning, errTooManyRejects)
	default:
	}
	if s.draining() {
		return ErrDraining
	}
	select {
	case s.regSem <- struct{}{}:
	default:
		s.tel.AdmissionShed.Inc()
		return ErrRegistrationFull
	}
	s.regs.Add(1)
	return nil
}

// registration runs one reserved registration: the Hello is read under
// IOTimeout first when hello is nil (the acceptor's connections), then
// validated, acked and delivered to the round loop on joinCh. Cancelling
// regCtx aborts it: the conn closes, so a blocked read or ack write returns
// at once and Run's join never waits out an IO timeout.
func (s *Server) registration(conn net.Conn, hello *Message) {
	defer s.regs.Done()
	defer func() { <-s.regSem }()
	defer context.AfterFunc(s.regCtx, func() { conn.Close() })()
	if hello == nil {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
		var err error
		if hello, err = ReadHello(conn); err != nil {
			s.reject(conn, "malformed registration: want a hello frame")
			return
		}
	}
	sess := s.admit(conn, hello)
	if sess == nil {
		return
	}
	select {
	case s.joinCh <- sess:
	case <-s.regCtx.Done():
		sess.conn.Close()
	}
}

// reject sends the registrant a KindError frame, closes the connection and
// advances the reject counter. It returns nil, the failed registration.
func (s *Server) reject(conn net.Conn, reason string) *session {
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

// admit validates one Hello. On success the session is added to the live
// set; on failure (nil) the registrant is rejected.
func (s *Server) admit(conn net.Conn, msg *Message) *session {
	if msg.Version != ProtocolVersion {
		return s.reject(conn, fmt.Sprintf("protocol version %d not supported, server speaks %d", msg.Version, ProtocolVersion))
	}
	if msg.ClientID < 0 || msg.ClientID >= s.cfg.NumClients {
		return s.reject(conn, fmt.Sprintf("client id %d outside [0,%d)", msg.ClientID, s.cfg.NumClients))
	}
	s.mu.Lock()
	_, dup := s.live[msg.ClientID]
	s.mu.Unlock()
	if dup {
		return s.reject(conn, fmt.Sprintf("client id %d already registered", msg.ClientID))
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
		return s.reject(conn, fmt.Sprintf("client id %d already registered", msg.ClientID))
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

// accept is the standalone server's one acceptor: Run starts it when the
// server has a listener and it hands every registrant to registration, the
// cohort as well as evicted clients' rejoins. Registrations are validated
// concurrently so one stalled hello cannot head-of-line-block the others,
// and bounded by regSem, whose slot is taken before the Hello is read so
// half-open registrants stay bounded: a connection past the bound is shed
// with a drain frame, as is every connection to a draining server. It stops
// when Run closes the listener or the reject cap is hit.
func (s *Server) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Run is returning
		}
		switch err := s.reserve(); {
		case errors.Is(err, errTooManyRejects):
			conn.Close()
			s.logf(-1, -1, "flnet: acceptor stopping: %v", errTooManyRejects)
			return
		case err != nil:
			// Draining or shed: the registrant should come back later, not
			// burn its retry budget on us.
			s.sendDrain(conn)
			conn.Close()
			continue
		}
		go s.registration(conn, nil)
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
