package fl

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/telemetry"
)

// The screen is the update validation stage every round passes through
// before the defense's aggregation rule runs: structurally invalid or
// non-finite updates are rejected outright, over-norm updates are clipped
// or rejected against a median-of-norms bound fixed once per round, and
// repeat offenders are quarantined — their updates are excluded for a fixed
// number of rounds even if they reconnect under the fault-tolerance path.

// The delta-norm bounds, as multiples of the median of the norm window:
// deltas with norm in (clipMultiple×median, rejectMultiple×median] are
// scaled down to the clip bound, and deltas past the reject bound are
// dropped and count as an offense.
const (
	clipMultiple   = 3
	rejectMultiple = 10
)

// ScreenConfig configures the update screen. The zero value rejects
// non-finite updates, clips no norms, and quarantines a client for three
// rounds from its first offense.
type ScreenConfig struct {
	// ClipNorms enables delta-norm validation: each update's L2 distance to
	// the round's starting global state is compared against the median of
	// the norms accepted in earlier rounds. Off by default because defenses
	// with legitimately outsized uploads (secure aggregation's masked
	// states) must not be clipped.
	ClipNorms bool
	// QuarantineRounds is how many rounds a quarantined client's updates
	// are excluded for (default 3). Negative disables quarantine.
	QuarantineRounds int
}

// ScreenVerdict records why one update was rejected.
type ScreenVerdict struct {
	ClientID int
	Reason   string
}

// ScreenReport is one round's screening outcome.
type ScreenReport struct {
	// Round is the round the verdicts belong to.
	Round int
	// Accepted lists the client ids whose updates reached the defense
	// (including clipped ones).
	Accepted []int
	// Clipped lists the client ids whose deltas were norm-clipped.
	Clipped []int
	// Rejected lists the rejected updates with reasons.
	Rejected []ScreenVerdict
	// Quarantined lists client ids whose updates were dropped because the
	// client is serving a quarantine penalty from an earlier round.
	Quarantined []int
	// NewlyQuarantined lists client ids whose penalty started this round.
	NewlyQuarantined []int
}

// RejectedIDs returns the rejected client ids.
func (r *ScreenReport) RejectedIDs() []int {
	ids := make([]int, len(r.Rejected))
	for i, v := range r.Rejected {
		ids[i] = v.ClientID
	}
	return ids
}

// Screen validates updates and tracks per-client reputation. Its methods
// are safe for concurrent use; rounds themselves (Apply, or begin…end) run
// one at a time.
type Screen struct {
	cfg ScreenConfig
	tel *Metrics

	mu sync.Mutex
	// norms is the window of recently accepted delta norms; median is the
	// open round's calibration, read from it once when the round began
	// (calibrated is false while the window is still filling).
	norms      normWindow
	median     float64
	calibrated bool
	// offenses counts rejected updates per client.
	offenses map[int]int
	// blockedUntil maps a quarantined client to the last round (inclusive)
	// its updates are excluded.
	blockedUntil map[int]int
}

// NewScreen builds a screen from cfg.
func NewScreen(cfg ScreenConfig) *Screen {
	if cfg.QuarantineRounds == 0 {
		cfg.QuarantineRounds = 3
	}
	return &Screen{
		cfg:          cfg,
		tel:          NewMetrics(telemetry.NewRegistry()),
		offenses:     make(map[int]int),
		blockedUntil: make(map[int]int),
	}
}

// SetMetrics points the screen's verdict counters at m (see
// Server.SetMetrics).
func (s *Screen) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = m
}

// Quarantined reports whether clientID's updates are excluded at round.
func (s *Screen) Quarantined(clientID, round int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined(clientID, round)
}

// quarantined is the lock-free core of Quarantined. The existence check
// matters: the map's zero value would otherwise quarantine every client at
// round 0. Callers hold s.mu.
func (s *Screen) quarantined(clientID, round int) bool {
	until, ok := s.blockedUntil[clientID]
	return ok && round <= until
}

// reject books an offense for clientID at round and starts a quarantine
// penalty. Callers hold s.mu. Returns whether the client was newly
// quarantined.
func (s *Screen) reject(clientID, round int) bool {
	s.offenses[clientID]++
	if s.cfg.QuarantineRounds < 0 {
		return false
	}
	until := round + s.cfg.QuarantineRounds
	if prev, ok := s.blockedUntil[clientID]; ok && until <= prev {
		return false
	}
	already := s.quarantined(clientID, round)
	s.blockedUntil[clientID] = until
	return !already
}

// ScreenState is the screen's exportable reputation state, checkpointed by
// the middleware so quarantine penalties survive a server restart (a
// poisoner must not be paroled by crashing the server).
type ScreenState struct {
	// Offenses counts rejected updates per client id.
	Offenses map[int]int
	// BlockedUntil maps a quarantined client id to the last round
	// (inclusive) its updates are excluded.
	BlockedUntil map[int]int
	// Norms is the running window of accepted delta norms.
	Norms []float64
}

// ExportState deep-copies the screen's reputation state for checkpointing.
func (s *Screen) ExportState() ScreenState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ScreenState{
		Offenses:     make(map[int]int, len(s.offenses)),
		BlockedUntil: make(map[int]int, len(s.blockedUntil)),
		Norms:        append([]float64(nil), s.norms.history...),
	}
	for id, n := range s.offenses {
		st.Offenses[id] = n
	}
	for id, until := range s.blockedUntil {
		st.BlockedUntil[id] = until
	}
	return st
}

// ImportState replaces the screen's reputation state with a checkpointed
// copy (crash recovery). Nil maps reset the corresponding state.
func (s *Screen) ImportState(st ScreenState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offenses = make(map[int]int, len(st.Offenses))
	s.blockedUntil = make(map[int]int, len(st.BlockedUntil))
	for id, n := range st.Offenses {
		s.offenses[id] = n
	}
	for id, until := range st.BlockedUntil {
		s.blockedUntil[id] = until
	}
	s.norms.history = append(s.norms.history[:0], st.Norms...)
}

// Apply screens one round's updates against prevGlobal (the state the
// round started from) and returns the survivors plus the verdict report.
// Input updates are never mutated; clipped updates are copies.
func (s *Screen) Apply(round int, prevGlobal []float64, updates []*Update) ([]*Update, ScreenReport) {
	report := ScreenReport{Round: round}
	kept := make([]*Update, 0, len(updates))
	s.begin()
	for _, u := range updates {
		if su, v := s.one(&report, round, prevGlobal, u); v == OfferAccepted || v == OfferClipped {
			kept = append(kept, su)
		}
	}
	s.end(round)
	return kept, report
}

// begin opens a round: the norm bounds every verdict of the round is issued
// against are fixed here, from the norms accepted in earlier rounds, so a
// round's verdicts do not depend on the order its updates arrive in.
func (s *Screen) begin() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.median, s.calibrated = s.norms.begin()
}

// end closes the round begin opened: its accepted norms join the window.
func (s *Screen) end(round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.norms.commit()
	occupancy := 0
	for _, until := range s.blockedUntil {
		if round <= until {
			occupancy++
		}
	}
	s.tel.QuarantineOccupancy.Set(int64(occupancy))
}

// one issues one update's verdict into report between begin and end — per
// arrival when the round streams, in a loop when Apply has the whole batch.
// The returned update is the one to aggregate (a scaled copy when clipped).
func (s *Screen) one(report *ScreenReport, round int, prevGlobal []float64, u *Update) (*Update, OfferVerdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined(u.ClientID, round) {
		report.Quarantined = append(report.Quarantined, u.ClientID)
		s.tel.ScreenQuarantined.Inc()
		return nil, OfferQuarantined
	}
	norm, reason := s.validate(prevGlobal, u)
	if reason != "" {
		report.Rejected = append(report.Rejected, ScreenVerdict{ClientID: u.ClientID, Reason: reason})
		if s.reject(u.ClientID, round) {
			report.NewlyQuarantined = append(report.NewlyQuarantined, u.ClientID)
		}
		s.tel.ScreenRejected.Inc()
		return nil, OfferRejected
	}
	report.Accepted = append(report.Accepted, u.ClientID)
	s.tel.ScreenAccepted.Inc()
	su := s.clip(prevGlobal, u, norm)
	if su == u {
		return u, OfferAccepted
	}
	report.Clipped = append(report.Clipped, u.ClientID)
	s.tel.ScreenClipped.Inc()
	return su, OfferClipped
}

// validate returns a rejection reason, or "" for a structurally sound
// update, and with ClipNorms the update's delta norm — computed here once,
// for the reject bound and for clip. Callers hold s.mu.
func (s *Screen) validate(prevGlobal []float64, u *Update) (norm float64, reason string) {
	if len(u.State) != len(prevGlobal) {
		return 0, fmt.Sprintf("state has %d values, want %d", len(u.State), len(prevGlobal))
	}
	if u.NumSamples < 0 {
		return 0, fmt.Sprintf("negative sample count %d", u.NumSamples)
	}
	// A single NaN coordinate corrupts FedAvg and misorders sort-based rules.
	for i, v := range u.State {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Sprintf("non-finite value %g at coordinate %d", v, i)
		}
	}
	if !s.cfg.ClipNorms {
		return 0, ""
	}
	norm = DeltaNorm(prevGlobal, u.State)
	if bound := rejectMultiple * s.median; s.calibrated && norm > bound {
		return norm, fmt.Sprintf("delta norm %.4g exceeds reject bound %.4g", norm, bound)
	}
	return norm, ""
}

// clip applies the round's norm bound to an accepted update of delta norm
// norm — u itself within the bound, a scaled copy past it — and records the
// accepted norm. Callers hold s.mu.
func (s *Screen) clip(prevGlobal []float64, u *Update, norm float64) *Update {
	if !s.cfg.ClipNorms {
		return u
	}
	bound := clipMultiple * s.median
	if !s.calibrated || norm <= bound {
		s.norms.record(norm)
		return u
	}
	cu := *u
	cu.State = make([]float64, len(u.State))
	clipDelta(cu.State, prevGlobal, u.State, bound/norm)
	s.norms.record(bound)
	return &cu
}
