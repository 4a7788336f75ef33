package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Health is the /healthz snapshot of a running federation server. All
// fields are value types so snapshots are comparable (the JSON round-trip
// fuzzer relies on that).
type Health struct {
	// Status is "waiting" (registration), "running" (rounds in progress),
	// "draining" (graceful shutdown requested, finishing the in-flight
	// round), "drained" (drain complete, state checkpointed), or "done".
	Status string `json:"status"`
	// Round is the round currently being orchestrated (0-based); after the
	// federation finishes it equals Rounds.
	Round int `json:"round"`
	// Rounds is the configured total round count.
	Rounds int `json:"rounds"`
	// RegisteredClients is the current live session count.
	RegisteredClients int `json:"registered_clients"`
	// NumClients is the configured cohort size.
	NumClients int `json:"num_clients"`
	// MinClients is the per-round quorum.
	MinClients int `json:"min_clients"`
	// StartRound is the round the federation (re)started from (checkpoint
	// resume), 0 for a fresh run.
	StartRound int `json:"start_round"`
	// CheckpointRound is the round of the last persisted checkpoint, -1 if
	// checkpointing is off or nothing has been persisted yet.
	CheckpointRound int `json:"checkpoint_round"`
	// Wire is the codec label the server offers at negotiation ("binary",
	// "binary+flate+int8+topk+delta", ...).
	Wire string `json:"wire,omitempty"`
}

// EncodeHealth renders h as JSON.
func EncodeHealth(h Health) ([]byte, error) {
	data, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode health: %w", err)
	}
	return data, nil
}

// DecodeHealth parses a /healthz JSON document. Unknown fields are
// rejected so a deployment mismatch (old prober, new server) fails loudly
// instead of silently dropping data.
func DecodeHealth(data []byte) (Health, error) {
	var h Health
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return Health{}, fmt.Errorf("telemetry: decode health: %w", err)
	}
	return h, nil
}
