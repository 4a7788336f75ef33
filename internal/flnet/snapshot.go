package flnet

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fl"
	"repro/internal/telemetry"
)

// resume loads the newest valid checkpoint generation, checks it against the
// configuration, and adopts what the configuration left unset (the sampling
// and quantization seeds). A fresh federation — no checkpoint configured, or
// none written yet — resumes from a zero snapshot of the initial state.
func resume(cfg *ServerConfig, events *telemetry.EventLog) (*checkpoint.Snapshot, error) {
	fresh := &checkpoint.Snapshot{State: cfg.InitialState}
	if cfg.CheckpointPath == "" {
		return fresh, nil
	}
	snap, skipped, err := checkpoint.LoadLatestValid(cfg.CheckpointPath)
	for _, p := range skipped {
		events.Eventf(-1, -1, "flnet: skipping corrupt checkpoint generation %s", p)
	}
	if errors.Is(err, os.ErrNotExist) {
		return fresh, nil // the first round writes the file
	}
	if err != nil {
		return nil, fmt.Errorf("flnet: resume: %w", err)
	}
	if cfg.Dataset != "" && snap.Dataset != "" && snap.Dataset != cfg.Dataset {
		return nil, fmt.Errorf("flnet: checkpoint is for dataset %q, server runs %q", snap.Dataset, cfg.Dataset)
	}
	if len(snap.State) != len(cfg.InitialState) {
		return nil, fmt.Errorf("flnet: checkpoint state has %d values, model needs %d", len(snap.State), len(cfg.InitialState))
	}
	// Re-drawing bit-identical cohorts after a crash needs the original
	// sampling draw: adopt the recorded seed when the config left it unset,
	// and refuse a conflicting one — a silently different draw would break
	// replayability.
	if snap.SampleSeed != 0 {
		switch {
		case cfg.SampleSeed == 0:
			cfg.SampleSeed = snap.SampleSeed
		case cfg.SampleSeed != snap.SampleSeed:
			return nil, fmt.Errorf("flnet: checkpoint sampled with seed %d, config says %d", snap.SampleSeed, cfg.SampleSeed)
		}
	}
	if snap.SampleSize != 0 && cfg.SampleSize != 0 && snap.SampleSize != cfg.SampleSize {
		return nil, fmt.Errorf("flnet: checkpoint sampled %d clients per round, config says %d", snap.SampleSize, cfg.SampleSize)
	}
	// Clients reconstruct quantized payloads with the federation's
	// quantization seed: adopt the recorded one like SampleSeed, and refuse a
	// conflicting configuration — reconstructions would silently diverge from
	// the recorded broadcast chain.
	if snap.Wire != nil && snap.Wire.QuantSeed != 0 {
		switch {
		case cfg.QuantSeed == 0:
			cfg.QuantSeed = snap.Wire.QuantSeed
		case cfg.QuantSeed != snap.Wire.QuantSeed:
			return nil, fmt.Errorf("flnet: checkpoint quantized with seed %d, config says %d", snap.Wire.QuantSeed, cfg.QuantSeed)
		}
	}
	events.Eventf(snap.Round, -1, "flnet: resuming from checkpoint %s at round %d (generation %d)",
		cfg.CheckpointPath, snap.Round, snap.Generation)
	return snap, nil
}

// saveCheckpoint persists the current global state and screen reputation as
// a new checkpoint generation, blocking until the write is durable.
func (s *Server) saveCheckpoint() error {
	return s.writeSnapshot(s.buildSnapshot())
}

// buildSnapshot gathers the federation's persistent state into a checkpoint
// snapshot. Pipelined mode encodes it concurrently with the next round, so
// everything it references must hold still until the write is done: the
// global state and the canonical broadcast are published states, immutable
// and never pooled, and are shared as they are; only the restored updates
// are copied, because the next round recycles their buffers as it folds
// them.
func (s *Server) buildSnapshot() *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Dataset: s.cfg.Dataset,
		Round:   s.core.Round(),
		State:   s.core.GlobalState(),
	}
	if s.screen != nil {
		st := s.screen.ExportState()
		snap.Quarantine = &checkpoint.QuarantineState{
			Offenses:     st.Offenses,
			BlockedUntil: st.BlockedUntil,
			Norms:        st.Norms,
		}
	}
	// Sampling and async state ride along so a resumed server re-draws the
	// same cohorts and a server drained again before its first round hands
	// on the late updates it was itself restored with (exchanges in flight
	// are lost either way — the clients redial and re-train).
	snap.SampleSeed = s.cfg.SampleSeed
	snap.SampleSize = s.cfg.SampleSize
	for _, u := range s.restored {
		snap.Async = append(snap.Async, checkpoint.AsyncUpdate{
			ClientID:   u.ClientID,
			Round:      u.Round,
			NumSamples: u.NumSamples,
			State:      append([]float64(nil), u.State...),
		})
	}
	if nc, ok := s.streamAgg.(fl.NormCarrier); ok {
		snap.StreamNorms = nc.ExportNorms()
	}
	// The codec configuration (and the broadcast-chain anchor, when deltas
	// or quantization are live) rides along so a resumed server honors
	// in-flight negotiations — see checkpoint.WireState.
	if s.offerCaps != 0 {
		ws := &checkpoint.WireState{
			Compress:  s.cfg.Compress,
			Quantize:  s.quantKind.String(),
			TopK:      s.cfg.TopK,
			Delta:     s.cfg.Delta,
			QuantSeed: s.cfg.QuantSeed,
		}
		if s.ring != nil {
			if round, bcast := s.ring.latest(); bcast != nil {
				ws.BcastRound = round
				ws.Bcast = bcast
			}
		}
		snap.Wire = ws
	}
	return snap
}

// writeSnapshot persists snap as a new checkpoint generation and advances
// the checkpointed-round watermark. Safe to call off the round loop: it
// touches only the snapshot and mu-guarded fields.
func (s *Server) writeSnapshot(snap *checkpoint.Snapshot) error {
	start := time.Now()
	if err := checkpoint.SaveFile(s.cfg.CheckpointPath, snap); err != nil {
		return err
	}
	s.tel.RoundTailSeconds.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	if snap.Round > s.ckptRound {
		s.ckptRound = snap.Round
	}
	s.mu.Unlock()
	return nil
}

// ckptPending is one in-flight background checkpoint write.
type ckptPending struct {
	done     chan struct{}
	err      error
	writeDur time.Duration
}

// submitCheckpoint starts a background write of the current state's
// snapshot. The snapshot is built synchronously — at the exact point the
// blocking save would have run, so the persisted chain is bit-identical
// to sequential mode — and only the encode+fsync overlaps the next
// round. At most one write is in flight: callers join the previous one
// first (Run's round loop, exit).
func (s *Server) submitCheckpoint() {
	snap := s.buildSnapshot()
	p := &ckptPending{done: make(chan struct{})}
	s.ckptPending = p
	go func() {
		start := time.Now()
		p.err = s.writeSnapshot(snap)
		p.writeDur = time.Since(start)
		close(p.done)
	}()
}

// joinCheckpoint blocks until the in-flight background checkpoint write
// (if any) completes, records the pipeline's stall/overlap histograms,
// and returns the write's error. The overlap — how much of the write ran
// while the round loop was doing useful work — is the write duration
// minus the time this join spent blocked.
func (s *Server) joinCheckpoint() error {
	p := s.ckptPending
	if p == nil {
		return nil
	}
	s.ckptPending = nil
	stallStart := time.Now()
	<-p.done
	stall := time.Since(stallStart)
	overlap := p.writeDur - stall
	if overlap < 0 {
		overlap = 0
	}
	s.tel.PipelineStallSeconds.Observe(stall.Seconds())
	s.tel.PipelineOverlapSeconds.Observe(overlap.Seconds())
	return p.err
}
