package fl

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Server is the FL aggregation server. It owns the global model state vector
// and applies the defense's server-side aggregation rule each round, through
// one round path: BeginRound → Offer* → FinishRound | AbortRound.
type Server struct {
	state []float64
	def   Defense
	meter *metrics.CostMeter
	tel   *Metrics
	round int

	screen        *Screen
	screenReports []ScreenReport
	lastTiming    AggTiming
	recycle       func([]float64)

	// The open round. agg folds each offer as it arrives; without one the
	// offers are retained for the defense's batch rule.
	open      bool
	agg       StreamingAggregator
	retained  []*Update
	report    ScreenReport
	screenDur time.Duration
	foldDur   time.Duration
	count     int
}

// AggTiming is the phase breakdown of one Aggregate call.
type AggTiming struct {
	// Screen is the update-screen duration (zero without a screen).
	Screen time.Duration
	// Aggregate is the defense's aggregation-rule duration.
	Aggregate time.Duration
}

// NewServer returns a server whose initial global state is a copy of initial.
// meter may be nil.
func NewServer(initial []float64, def Defense, meter *metrics.CostMeter) (*Server, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("fl: server needs a non-empty initial state")
	}
	if def == nil {
		return nil, fmt.Errorf("fl: server needs a defense (use defense.None for the baseline)")
	}
	return &Server{
		state: append([]float64(nil), initial...),
		def:   def,
		meter: meter,
		tel:   NewMetrics(telemetry.NewRegistry()),
	}, nil
}

// SetMetrics points the server's instruments at m, the bundle in its
// federation's registry (flnet.NewServer shares one between the core, the
// screen and its own network-layer bundle).
func (s *Server) SetMetrics(m *Metrics) { s.tel = m }

// GlobalState returns the current global model state, read-only. A published
// state is immutable and shared: the server never writes into it (FinishRound
// replaces it with the aggregation rule's fresh memory) and never recycles
// it, so broadcasts, the anchor ring and a checkpoint being written in the
// background all read the one slice.
func (s *Server) GlobalState() []float64 { return s.state }

// Round returns the number of completed aggregation rounds.
func (s *Server) Round() int { return s.round }

// SetRound moves the round counter, so a federation resumed from a
// checkpoint continues numbering where the snapshot left off (defenses
// receive the true round index in their hooks). Negative values are
// clamped to 0.
func (s *Server) SetRound(r int) {
	if r < 0 {
		r = 0
	}
	s.round = r
}

// SetScreen installs an update screen (validator + quarantine tracker)
// that every round's updates pass through before the defense aggregates.
// A nil screen disables screening.
func (s *Server) SetScreen(sc *Screen) { s.screen = sc }

// ScreenReports returns a copy of the per-round screening reports recorded
// so far (empty without a screen).
func (s *Server) ScreenReports() []ScreenReport {
	return append([]ScreenReport(nil), s.screenReports...)
}

// LastScreenReport returns the most recent round's screening report.
func (s *Server) LastScreenReport() (ScreenReport, bool) {
	if len(s.screenReports) == 0 {
		return ScreenReport{}, false
	}
	return s.screenReports[len(s.screenReports)-1], true
}

// SetRecycler installs the function that takes back an offered update's
// State buffer once the server is finished with it: right after the fold in
// a streaming round, after FinishRound's aggregation or AbortRound in a
// retained one. The flnet server installs its frame-buffer pool here, so
// pooled buffers are released in this one place. Without a recycler the
// buffers stay the caller's — fl.System reads its updates after Aggregate.
func (s *Server) SetRecycler(put func([]float64)) { s.recycle = put }

// release hands every update's State buffer back to the recycler.
func (s *Server) release(updates ...*Update) {
	if s.recycle == nil {
		return
	}
	for _, u := range updates {
		s.recycle(u.State)
		u.State = nil
	}
}

// Aggregate runs one whole round over a batch of updates in hand: the
// defense's batch rule over the updates in client-id order.
func (s *Server) Aggregate(updates []*Update) error {
	if err := s.BeginRound(nil); err != nil {
		return err
	}
	for _, u := range updates {
		if _, err := s.Offer(u); err != nil {
			s.AbortRound()
			return err
		}
	}
	return s.FinishRound()
}

// LastAggTiming returns the phase breakdown of the most recently finished
// round (screening vs the defense's aggregation rule).
func (s *Server) LastAggTiming() AggTiming { return s.lastTiming }

// OfferVerdict is the screen's verdict on one update: Offer's answer in a
// streaming round, and how Screen.Apply sorts a batch.
type OfferVerdict int

// Offer verdicts.
const (
	// OfferAccepted: the update was folded into the running aggregate.
	OfferAccepted OfferVerdict = iota
	// OfferClipped: folded after the screen norm-clipped its delta.
	OfferClipped
	// OfferRejected: the screen rejected the update (not folded); the
	// caller should evict the sender.
	OfferRejected
	// OfferQuarantined: dropped because the sender is serving a quarantine
	// penalty (not folded, sender not evicted).
	OfferQuarantined
)

// String implements fmt.Stringer.
func (v OfferVerdict) String() string {
	switch v {
	case OfferAccepted:
		return "accepted"
	case OfferClipped:
		return "clipped"
	case OfferRejected:
		return "rejected"
	case OfferQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// BeginRound opens the current round. With a streaming aggregator each
// offered update is screened and folded the moment it arrives, so memory
// stays O(model) instead of O(clients × model); with nil the offers are
// retained until FinishRound hands them to the defense's batch rule (Krum,
// Multi-Krum and the like score every update against the whole cohort). The
// global state and the round counter move only in FinishRound.
func (s *Server) BeginRound(agg StreamingAggregator) error {
	if s.open {
		return fmt.Errorf("fl: BeginRound while round %d is still open", s.round)
	}
	s.open = true
	s.agg = agg
	s.report = ScreenReport{Round: s.round}
	s.screenDur, s.foldDur = 0, 0
	s.count = 0
	if agg != nil {
		agg.Begin(s.round, s.state)
		if s.screen != nil {
			s.screen.begin()
		}
	}
	return nil
}

// Offer hands one update to the open round and with it the update's State
// buffer, which goes back to the recycler (SetRecycler) when the server is
// finished with it. A streaming round issues the screen's verdict at once
// and folds the survivor; a retained round keeps the update — never a copy —
// and answers OfferAccepted, its verdicts falling due in FinishRound. A
// non-nil error means the update was structurally incompatible (or the fold
// itself failed): the caller decides whether that fails the round or just
// the sender.
func (s *Server) Offer(u *Update) (OfferVerdict, error) {
	if !s.open {
		return OfferRejected, fmt.Errorf("fl: Offer without BeginRound")
	}
	if u == nil {
		return OfferRejected, fmt.Errorf("fl: Offer of nil update")
	}
	if s.agg == nil {
		s.retained = append(s.retained, u)
		s.count++
		return OfferAccepted, nil
	}
	defer s.release(u)
	su, verdict := u, OfferAccepted
	if s.screen != nil {
		start := time.Now()
		su, verdict = s.screen.one(&s.report, s.round, s.state, u)
		s.screenDur += time.Since(start)
		if su == nil {
			return verdict, nil
		}
	} else if len(u.State) != len(s.state) {
		return OfferRejected, s.lengthError(u)
	}
	peak := 8 * len(su.State)
	if mb, ok := s.agg.(interface{ MemoryBytes() int }); ok {
		peak += mb.MemoryBytes()
	}
	s.tel.AggUpdateBytesPeak.SetMax(int64(peak))
	start := time.Now()
	err := s.agg.Fold(su)
	s.foldDur += time.Since(start)
	if err != nil {
		return OfferRejected, fmt.Errorf("fl: round %d fold: %w", s.round, err)
	}
	s.count++
	return verdict, nil
}

func (s *Server) lengthError(u *Update) error {
	return fmt.Errorf("fl: round %d update from client %d has %d values, want %d",
		s.round, u.ClientID, len(u.State), len(s.state))
}

// FinishRound closes the round: the aggregate of the offered updates becomes
// the next global state and the round counter advances. A retained round
// does all of its work here — the updates are sorted by client id (arrival
// order is not reproducible; this order is, run to run and across a
// checkpoint resume), screened, and handed to the defense's batch rule.
func (s *Server) FinishRound() error {
	if !s.open {
		return fmt.Errorf("fl: FinishRound without BeginRound")
	}
	defer s.AbortRound() // whatever the outcome, the round is over
	kept := s.retained
	if s.agg == nil {
		slices.SortStableFunc(kept, func(a, b *Update) int { return cmp.Compare(a.ClientID, b.ClientID) })
		payloadBytes := 0
		for _, u := range kept {
			payloadBytes += 8 * len(u.State)
		}
		s.tel.AggUpdateBytesPeak.SetMax(int64(payloadBytes))
		if s.screen != nil {
			start := time.Now()
			kept, s.report = s.screen.Apply(s.round, s.state, kept)
			s.screenDur = time.Since(start)
			s.count = len(kept)
		} else {
			for _, u := range kept {
				if len(u.State) != len(s.state) {
					return s.lengthError(u)
				}
			}
		}
	} else if s.screen != nil {
		s.screen.end(s.round)
	}
	s.lastTiming = AggTiming{Screen: s.screenDur}
	if s.screen != nil {
		s.tel.ScreenSeconds.Observe(s.screenDur.Seconds())
		s.screenReports = append(s.screenReports, s.report)
	}
	if s.count == 0 {
		if rejected, quarantined := len(s.report.Rejected), len(s.report.Quarantined); rejected+quarantined > 0 {
			return fmt.Errorf("fl: round %d: no updates survived screening (%d rejected, %d quarantined)",
				s.round, rejected, quarantined)
		}
		return fmt.Errorf("fl: round %d received no updates", s.round)
	}
	start := time.Now()
	var (
		next []float64
		err  error
	)
	if s.agg == nil {
		next, err = s.def.Aggregate(s.round, s.state, kept)
	} else {
		next, err = s.agg.Finalize()
	}
	if err != nil {
		return fmt.Errorf("fl: round %d aggregate: %w", s.round, err)
	}
	if len(next) != len(s.state) {
		return fmt.Errorf("fl: defense %q returned %d values, want %d", s.def.Name(), len(next), len(s.state))
	}
	s.lastTiming.Aggregate = s.foldDur + time.Since(start)
	s.tel.AggregateSeconds.Observe(s.lastTiming.Aggregate.Seconds())
	s.tel.RoundsAggregated.Inc()
	if s.meter != nil {
		s.meter.AddServerAgg(s.lastTiming.Aggregate)
		s.meter.SamplePhase(metrics.PhaseAggregate)
	}
	s.state = next
	s.round++
	return nil
}

// AbortRound discards the open round (quorum failure, drain) without
// touching the global state or round counter, and hands the retained
// updates' buffers back to the recycler. Screen offenses booked during the
// round stick — an offense is an offense even if the round never finalizes.
func (s *Server) AbortRound() {
	s.open = false
	s.release(s.retained...)
	clear(s.retained)
	s.retained = s.retained[:0]
}
