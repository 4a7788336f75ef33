package flnet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fl"
)

// The round engine: one collection loop for every round. Exchanges run one
// goroutine per client and report into the server-lifetime results channel;
// the round loop — the only goroutine that touches the engine state below —
// folds what arrives into the core's open round until the close policy says
// the round is over. Synchronous and asynchronous rounds are this one loop
// under two policies, both read from AsyncStaleness:
//
//	                     sync (AsyncStaleness 0)          async (> 0)
//	a round closes when  every launched exchange has      MinClients updates
//	                     reported, or the deadline has    are accepted
//	                     passed — with MinClients
//	                     updates accepted either way
//	exchanges in flight  are evicted as stragglers        carry over: the update
//	at the close                                          folds into the round it
//	                                                      lands in, weighted by
//	                                                      fl.StalenessWeight
//
// Buffer ownership: exchange reads an update into a pooled buffer. The
// engine either drops the update — too stale, or its exchange was written
// off when its round closed — and returns the buffer itself (discard), or
// offers it to the core, which owns it from then on and recycles it after
// the fold, FinishRound or AbortRound (fl.Server.SetRecycler).

// result is one finished exchange: u (nil on failure) carries the round the
// exchange ran in.
type result struct {
	sess *session
	u    *fl.Update
	err  error
	// sendDur is how long the global-state send took; the round's
	// broadcast critical path is the max over its cohort.
	sendDur time.Duration
}

// round is one round's collection state.
type round struct {
	s      *Server
	n      int
	report RoundReport
	errs   []error // every failed client's error, joined into report.Err

	bc       broadcast
	announce []int // the sampled cohort, when the defense must be told
	// queue is the remainder of the sampling draw: replacements for cohort
	// members that fail or straggle (empty without sampling, and for a
	// cohort-aware defense — a substitute's pairwise masks could not cancel
	// against the cohort the others already masked for).
	queue []*session
	// counted holds the client ids whose update this round has taken; got
	// counts the accepted ones toward the quorum.
	counted map[int]bool
	got     int

	// deadline is nil without a RoundDeadline and once it has fired
	// (deadlineHit) — until replacements restart it.
	timer       *time.Timer
	deadline    <-chan time.Time
	deadlineHit bool
}

// runRound runs round n end to end: open the core's round, collect updates
// until the close policy is met, aggregate, and fold the screen's verdicts
// into the report. ErrDraining means the drain deadline expired mid-round.
func (s *Server) runRound(ctx context.Context, n int) (RoundReport, error) {
	s.mu.Lock()
	s.curRound = n
	s.status = "running"
	s.mu.Unlock()
	s.tel.RoundsStarted.Inc()
	r := &round{s: s, n: n, report: RoundReport{Round: n}, counted: make(map[int]bool)}
	err := s.core.BeginRound(s.streamAgg)
	if err == nil {
		err = r.collect(ctx)
	}
	r.report.Err = errors.Join(r.errs...)
	if err != nil {
		// Abandon the open round; screen offenses booked during it stick.
		s.core.AbortRound()
		if !errors.Is(err, ErrDraining) {
			err = fmt.Errorf("flnet: round %d: %w", n, err)
		}
		return r.report, err
	}
	err = s.core.FinishRound()
	agg := s.core.LastAggTiming()
	r.report.Timing.Screen = agg.Screen
	r.report.Timing.Aggregate = agg.Aggregate
	s.applyScreenOutcome(n, &r.report)
	return r.report, err
}

// collect broadcasts the global state and folds updates into the core's open
// round until the round closes. It is the one place exchange results are
// received. Failed clients are evicted (they may rejoin later); with sampling
// on, evicted cohort members are replaced from the deterministic draw's
// remainder so a partitioned cohort slice doesn't stall the round.
func (r *round) collect(ctx context.Context) error {
	s := r.s
	r.bc = s.prepareBroadcast(r.n)
	start := time.Now()
	async := s.cfg.AsyncStaleness > 0

	// Late updates come first — those a checkpoint carried, then every
	// exchange that reported since the last round closed — so their clients
	// are free for (and, if counted, excused from) this round's cohort.
	for _, u := range s.restored {
		r.fold(u, nil)
	}
	s.restored = nil
	for len(s.results) > 0 {
		r.settle(<-s.results)
	}
	// The broadcast always goes out — even when late updates alone met the
	// quorum — so the fleet keeps training.
	r.launchCohort()
	if s.cfg.RoundDeadline > 0 {
		r.timer = time.NewTimer(s.cfg.RoundDeadline)
		defer r.timer.Stop()
		r.deadline = r.timer.C
	}

	for {
		if r.got >= s.cfg.MinClients && (async || len(s.busy) == 0 || r.deadlineHit) {
			break
		}
		// Below quorum with nothing in flight: resample a replacement when
		// the draw has any left; otherwise, without a deadline the round can
		// never recover — with one, a rejoining client may still push the
		// round to quorum before the deadline.
		if len(s.busy) == 0 && !r.refillOne() && r.deadline == nil {
			return fmt.Errorf("quorum not met: %d/%d updates: %w", r.got, s.cfg.MinClients, errors.Join(r.errs...))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.drainKill:
			// The drain deadline expired: abort the round. The sessions of
			// exchanges in flight close with the rest of the live set when
			// Run returns.
			return ErrDraining
		case res := <-s.results:
			r.settle(res)
		case sess := <-s.joinCh:
			r.join(sess)
		case <-r.deadline:
			r.deadlineHit = true
			r.deadline = nil
			// Below quorum at the deadline: pessimistically assume the
			// stragglers never report and resample enough replacements to
			// reach quorum, with a fresh collection window.
			launched := 0
			for r.got+launched < s.cfg.MinClients && r.refillOne() {
				launched++
			}
			if launched > 0 {
				s.logf(r.n, -1, "flnet: round %d: deadline passed below quorum (%d/%d); resampled %d replacements",
					r.n, r.got, s.cfg.MinClients, launched)
				r.restartDeadline()
			}
		}
	}

	if !async {
		// Closing the conn unblocks the exchange goroutine; its result is
		// recognized as written off (settle) when it arrives.
		for id, sess := range s.busy {
			delete(s.busy, id)
			s.tel.StragglersEvicted.Inc()
			r.evict(sess, fmt.Errorf("no update within round deadline %s", s.cfg.RoundDeadline))
		}
	}
	r.report.Timing.Wait = time.Since(start)
	s.tel.RoundBroadcastSeconds.Observe(r.report.Timing.Broadcast.Seconds())
	s.tel.RoundWaitSeconds.Observe(r.report.Timing.Wait.Seconds())
	s.tel.AsyncBuffered.Set(int64(len(s.busy)))
	return nil
}

// launchCohort draws the round's cohort among the live clients with no
// exchange in flight and no update already counted this round, and starts
// their exchanges. Without sampling that is every such client. With
// sampling, quarantined clients are never drawn; the first SampleSize ids of
// the deterministic draw form the cohort and the remainder — in draw order —
// is the replacement queue.
func (r *round) launchCohort() {
	s := r.s
	s.mu.Lock()
	eligible := make(map[int]*session, len(s.live))
	for id, sess := range s.live {
		if s.busy[id] == nil && !r.counted[id] {
			eligible[id] = sess
		}
	}
	s.mu.Unlock()

	if s.cfg.SampleSize <= 0 {
		for _, sess := range eligible {
			r.launch(sess)
		}
		return
	}
	ids := make([]int, 0, len(eligible))
	for id := range eligible {
		if s.screen == nil || !s.screen.Quarantined(id, r.n) {
			ids = append(ids, id)
		}
	}
	order := SampleOrder(s.cfg.SampleSeed, r.n, ids)
	k := min(s.cfg.SampleSize, len(order))
	r.report.Sampled = append([]int(nil), order[:k]...)
	s.tel.SampledCohort.Set(int64(k))
	if s.cohortAware == nil {
		for _, id := range order[k:] {
			r.queue = append(r.queue, eligible[id])
		}
	} else {
		// A cohort-aware defense (secure aggregation) needs the mask graph
		// restricted to the sampled cohort on both ends: announce it to the
		// server-side defense and ship it in the round's broadcast.
		r.announce = order[:k]
		s.cohortAware.SetRoundCohort(r.n, r.announce)
	}
	for _, id := range order[:k] {
		r.launch(eligible[id])
	}
}

// launch starts sess's exchange for this round. The goroutine delivers its
// result to the round loop — of this round or, in async mode, a later one —
// and gives up only once Run has returned.
func (r *round) launch(sess *session) {
	s, n, bc, announce := r.s, r.n, r.bc, r.announce
	s.busy[sess.clientID] = sess
	go func() {
		u, sendDur, err := s.exchange(sess, n, bc, announce)
		select {
		case s.results <- result{sess: sess, u: u, err: err, sendDur: sendDur}:
		case <-s.runDone:
		}
	}()
}

// join launches a session that registered mid-round. Sampled rounds take
// rejoiners from the next round's draw instead; either way the session is
// already in the live set.
func (r *round) join(sess *session) {
	s := r.s
	s.mu.Lock()
	live := s.live[sess.clientID] == sess
	s.mu.Unlock()
	if live && s.cfg.SampleSize <= 0 && s.busy[sess.clientID] == nil && !r.counted[sess.clientID] {
		r.launch(sess)
	}
}

// refillOne replaces an evicted or straggling cohort member with the next
// id in the deterministic draw, keeping the round on course for quorum
// instead of stalling.
func (r *round) refillOne() bool {
	if len(r.queue) == 0 {
		return false
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.report.Sampled = append(r.report.Sampled, next.clientID)
	r.s.tel.SampleReplacements.Inc()
	r.launch(next)
	return true
}

// restartDeadline gives freshly launched replacements their own collection
// window; safe to Reset because the timer has fired and its channel was
// drained whenever deadlineHit is true.
func (r *round) restartDeadline() {
	if r.deadlineHit {
		r.deadlineHit = false
		r.timer.Reset(r.s.cfg.RoundDeadline)
		r.deadline = r.timer.C
	}
}

// evict evicts sess and records why in the round's errors.
func (r *round) evict(sess *session, err error) {
	r.s.evict(sess, &r.report)
	r.errs = append(r.errs, fmt.Errorf("client %d: %w", sess.clientID, err))
}

// evict drops sess from the live set (unless a newer session has replaced
// it), closes its connection, and records the client in report.Dropped; the
// client may rejoin later.
func (s *Server) evict(sess *session, report *RoundReport) {
	s.mu.Lock()
	if s.live[sess.clientID] == sess {
		delete(s.live, sess.clientID)
		s.tel.LiveClients.Set(int64(len(s.live)))
	}
	s.mu.Unlock()
	sess.conn.Close()
	s.tel.ClientsEvicted.Inc()
	report.Dropped = append(report.Dropped, sess.clientID)
}

// fail evicts sess and draws a replacement for it.
func (r *round) fail(sess *session, err error) {
	r.evict(sess, err)
	if r.refillOne() {
		r.restartDeadline()
	}
}

// settle takes one exchange result off the in-flight table and folds its
// update into the round.
func (r *round) settle(res result) {
	s := r.s
	if s.busy[res.sess.clientID] != res.sess {
		// Written off when its round closed (a straggler, evicted).
		if res.u != nil {
			discard(res.u)
		}
		return
	}
	delete(s.busy, res.sess.clientID)
	if res.sendDur > r.report.Timing.Broadcast {
		r.report.Timing.Broadcast = res.sendDur
	}
	if res.err != nil {
		r.fail(res.sess, res.err)
		return
	}
	r.fold(res.u, res.sess)
}

// fold offers one update to the core's open round, weighted by its age in
// rounds; an update past AsyncStaleness (in a synchronous federation: any
// late one) is dropped. sess is nil for updates restored from a checkpoint.
func (r *round) fold(u *fl.Update, sess *session) {
	s := r.s
	u.Staleness = r.n - u.Round
	if u.Staleness > s.cfg.AsyncStaleness {
		discard(u)
		s.tel.AsyncStaleDropped.Inc()
		s.logf(r.n, u.ClientID, "flnet: round %d: dropped update from client %d: %d rounds stale (max %d)",
			r.n, u.ClientID, u.Staleness, s.cfg.AsyncStaleness)
		return
	}
	r.counted[u.ClientID] = true
	// The screen's verdicts land in the post-round report
	// (applyScreenOutcome); an Offer error is structural, so the sender is
	// evicted.
	if _, err := s.core.Offer(u); err != nil {
		if sess != nil {
			r.fail(sess, err)
		}
		return
	}
	r.got++
	r.report.Participants = append(r.report.Participants, u.ClientID)
	if u.Staleness > 0 {
		r.report.Stale++
		s.tel.AsyncStaleAccepted.Inc()
	}
}

// discard returns the buffer of an update the engine drops without offering
// it to the core.
func discard(u *fl.Update) {
	PutState(u.State)
	u.State = nil
}

// applyScreenOutcome merges the round's screening report (if any) into the
// cohort report and evicts the sessions of rejected clients: a poisoner is
// disconnected like any other protocol violator. It may rejoin via the
// resync path, but while its quarantine penalty lasts its updates keep
// being excluded from aggregation.
func (s *Server) applyScreenOutcome(round int, report *RoundReport) {
	rep, ok := s.core.LastScreenReport()
	if !ok || rep.Round != round {
		return
	}
	report.Rejected = rep.RejectedIDs()
	report.Quarantined = append([]int(nil), rep.Quarantined...)
	report.Clipped = append([]int(nil), rep.Clipped...)
	excluded := make(map[int]bool, len(report.Rejected)+len(report.Quarantined))
	for _, id := range report.Rejected {
		excluded[id] = true
	}
	for _, id := range report.Quarantined {
		excluded[id] = true
	}
	if len(excluded) == 0 {
		return
	}
	participants := report.Participants[:0]
	for _, id := range report.Participants {
		if !excluded[id] {
			participants = append(participants, id)
		}
	}
	report.Participants = participants
	for _, v := range rep.Rejected {
		s.mu.Lock()
		sess := s.live[v.ClientID]
		s.mu.Unlock()
		if sess != nil {
			s.evict(sess, report)
			s.logf(round, v.ClientID, "flnet: round %d: evicted client %d: %s", round, v.ClientID, v.Reason)
		}
	}
	if len(rep.NewlyQuarantined) > 0 {
		s.logf(round, -1, "flnet: round %d: quarantined clients %v", round, rep.NewlyQuarantined)
	}
}

// exchange sends the round's global state (with the sampled cohort attached
// when the defense needs it) and reads the client's update into a pooled
// state buffer — ownership of the buffer passes to the returned Update and
// back to the pool once the server is done with it. sendDur is how long the
// send took (valid even on a failed exchange, as long as the send itself
// completed).
func (s *Server) exchange(sess *session, round int, bc broadcast, cohort []int) (u *fl.Update, sendDur time.Duration, err error) {
	global := bc.state
	sendStart := time.Now()
	if err := s.send(sess, &Message{Kind: KindGlobal, Round: round, State: global, Cohort: cohort, Canon: bc.canon}); err != nil {
		return nil, 0, err
	}
	// The peer now holds (or will decode) round's canonical broadcast:
	// advance its anchor so its quantized upload resolves this round's base
	// and the next Global can delta against it. A peer that failed to
	// process the send errors the read below and is evicted either way.
	sess.anchor = round
	sendDur = time.Since(sendStart)
	sess.conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	msg := &Message{State: GetState()}
	if err := ReadMessageWith(sess.conn, msg, sess.codec); err != nil {
		PutState(msg.State)
		return nil, sendDur, err
	}
	fail := func(format string, args ...any) (*fl.Update, time.Duration, error) {
		PutState(msg.State)
		return nil, sendDur, fmt.Errorf(format, args...)
	}
	switch msg.Kind {
	case KindUpdate:
	case KindError:
		return fail("client reported: %s", msg.Err)
	default:
		return fail("unexpected %v frame", msg.Kind)
	}
	if msg.Round != round {
		return fail("update for round %d during round %d", msg.Round, round)
	}
	// Structural wire validation: a mis-sized vector or negative weight can
	// only come from a broken or malicious peer; fail the exchange (and
	// evict) instead of letting it reach the aggregation path.
	if len(msg.State) != len(global) {
		return fail("update state has %d values, want %d", len(msg.State), len(global))
	}
	if msg.NumSamples < 0 {
		return fail("update carries negative sample count %d", msg.NumSamples)
	}
	return &fl.Update{
		ClientID:   sess.clientID,
		Round:      msg.Round,
		State:      msg.State,
		NumSamples: msg.NumSamples,
	}, sendDur, nil
}

func (s *Server) send(sess *session, msg *Message) error {
	sess.conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	return WriteMessageWith(sess.conn, msg, sess.codec)
}
