package flnet

import (
	"fmt"
	"sync"

	"repro/internal/fl"
)

// Server-side wire-codec state: the capability offer computed from
// ServerConfig, the ring of recent canonical broadcast states that delta
// and quantized payloads anchor against, and the per-round canonical
// broadcast preparation.

// wireOffer validates the codec portion of a ServerConfig and computes the
// capability mask the server offers at negotiation.
func wireOffer(cfg *ServerConfig, cohortAware fl.CohortAware) (uint32, fl.QuantKind, error) {
	quant, err := fl.ParseQuantKind(cfg.Quantize)
	if err != nil {
		return 0, 0, err
	}
	if cfg.TopK < 0 || cfg.TopK >= 1 {
		return 0, 0, fmt.Errorf("flnet: TopK %g outside [0,1)", cfg.TopK)
	}
	if cfg.TopK > 0 && quant == fl.QuantNone {
		return 0, 0, fmt.Errorf("flnet: TopK sparsification requires quantization (set Quantize)")
	}
	if quant != fl.QuantNone && cohortAware != nil {
		return 0, 0, fmt.Errorf("flnet: defense is cohort-aware (secure aggregation): quantized uploads would corrupt the pairwise mask cancellation; disable Quantize or the masking defense")
	}
	caps := CapBinary
	if cfg.Compress {
		caps |= CapFlate
	}
	switch quant {
	case fl.QuantInt8:
		caps |= CapQuantInt8
	case fl.QuantInt16:
		caps |= CapQuantInt16
	}
	if cfg.TopK > 0 {
		caps |= CapTopK
	}
	if cfg.Delta {
		caps |= CapDelta
	}
	return caps, quant, nil
}

// bcastRing holds the canonical broadcast states a session can still anchor
// on, so per-session codecs can anchor deltas and quantized uploads against
// them: a Global deltas against the previous round's entry, an upload
// against its own round's. Entries are published states — immutable, shared
// with whoever else reads them (the server core, a checkpoint being
// written), never pooled — and those size or more rounds behind the newest
// are evicted (NewServer sizes the ring).
type bcastRing struct {
	mu      sync.Mutex
	size    int
	entries map[int][]float64
	newest  int
}

func newBcastRing(size int) *bcastRing {
	if size < 2 {
		size = 2
	}
	return &bcastRing{size: size, entries: make(map[int][]float64, size), newest: -1}
}

// put stores state itself as round's canonical broadcast — the caller gives
// up writing to it — and evicts entries that fell out of the window.
func (r *bcastRing) put(round int, state []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[round] = state
	if round > r.newest {
		r.newest = round
	}
	for old := range r.entries {
		if old <= r.newest-r.size {
			delete(r.entries, old)
		}
	}
}

// get returns round's canonical broadcast, or nil when it aged out (or
// the ring is off — a hostile delta frame on a plain binary session must
// fail its anchor lookup, not panic).
func (r *bcastRing) get(round int) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[round]
}

// latest returns the newest entry (round, state), or (-1, nil) when empty.
func (r *bcastRing) latest() (int, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newest, r.entries[r.newest]
}

// broadcast is one round's outbound global model: the full canonical state
// every client must hold after the round, plus — when quantized delta
// broadcasts are on — the round's canonical quantized delta against the
// previous broadcast, encoded once and shipped verbatim to every anchored
// peer.
type broadcast struct {
	round int
	state []float64
	canon *fl.DeltaPayload
}

// prepareBroadcast computes round's canonical broadcast. With quantized
// delta broadcasts negotiable, the canonical chain is
//
//	B_r = B_{r-1} + dq(q(g_r − B_{r-1}))
//
// — the aggregate g_r is quantized against the previous broadcast and the
// broadcast state is the *dequantized* reconstruction, so every client
// (and the server's own upload anchors) hold bit-identical states, and the
// quantization error of round r is folded back into round r+1's delta
// (error feedback) instead of accumulating. Without quantization, or when
// the previous broadcast is unavailable (round 0, post-resume gap), the
// broadcast is the aggregate itself.
func (s *Server) prepareBroadcast(round int) broadcast {
	g := s.core.GlobalState()
	if s.ring == nil {
		return broadcast{round: round, state: g}
	}
	bc := broadcast{round: round, state: g}
	if s.quantKind != fl.QuantNone && s.offerCaps&CapDelta != 0 {
		if prev := s.ring.get(round - 1); len(prev) == len(g) {
			// Stream -1 marks the server's canonical broadcast draw — shared
			// by every receiver, unlike per-client upload streams.
			// The payload is fresh each round: exchanges still writing an
			// earlier broadcast hold on to theirs.
			p := new(fl.DeltaPayload)
			err := s.canonEnc.Encode(p, s.quantKind, s.cfg.QuantSeed, -1, round, round-1, prev, g, 0)
			if err == nil {
				if state, aerr := p.Apply(prev, nil); aerr == nil {
					bc.state, bc.canon = state, p
				}
			}
			if bc.canon == nil {
				s.logf(round, -1, "flnet: round %d: broadcasting full state (canonical delta unavailable: %v)", round, err)
			}
		}
	}
	s.ring.put(round, bc.state)
	return bc
}

// sessionBase builds sess's codec anchor resolver: the only state the
// server knows the peer holds is the broadcast of sess.anchor (the last
// round successfully sent to it, or its Hello LastRound), served from the
// ring.
func (s *Server) sessionBase(sess *session) func(round int) []float64 {
	return func(round int) []float64 {
		if round != sess.anchor {
			return nil
		}
		return s.ring.get(round)
	}
}
