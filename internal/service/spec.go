// Package service is the multi-tenant federation control plane: one
// dinar-server process hosts many concurrent named federation jobs, each
// a full flnet server with its own config, checkpoint chain, quarantine
// state, wire-codec negotiation, and job-labeled telemetry registry. The
// pieces: a job registry with a created→running→draining→done lifecycle
// (plus pause/resume through the checkpoint chain), an admin REST API
// (POST /jobs, status, drain/pause/resume/delete), a shared front-door
// listener that reads each client's Hello once and admits the client with it
// to its job's server (Server.Admit), with per-client rate limiting and the
// job's registration bound as backpressure, and a rolling-restart path
// that re-adopts every job's latest valid checkpoint from the state
// directory's manifest.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/fl"
)

// JobSpec is the wire form of one federation job's configuration — the
// body of POST /jobs and the unit persisted in the service manifest.
// Semantics mirror the dinar-server flags / flnet.ServerConfig fields of
// the same names; zero values mean the same defaults.
type JobSpec struct {
	// Name identifies the job: the routing key clients put in their
	// Hello, the telemetry label, and the checkpoint-file stem. Letters,
	// digits, dots, underscores, and dashes only.
	Name string `json:"name"`
	// Dataset names the registered dataset the job trains on (decides
	// the model architecture and the initial global state).
	Dataset string `json:"dataset"`
	// Defense selects the privacy defense ("none", "dinar", ...).
	Defense string `json:"defense,omitempty"`
	// Aggregator selects the aggregation rule (fedavg, krum, ...).
	Aggregator string `json:"aggregator,omitempty"`
	// MaxByzantine is the attacker count robust aggregators tolerate.
	MaxByzantine int `json:"max_byzantine,omitempty"`
	// Clients is the federation size (Hello ids live in [0, Clients)).
	Clients int `json:"clients"`
	// Rounds is the number of federated rounds.
	Rounds int `json:"rounds"`
	// Seed is the federation seed shared with the job's clients.
	Seed int64 `json:"seed,omitempty"`
	// Records overrides the dataset record count (0 = dataset default).
	Records int `json:"records,omitempty"`

	MinClients      int   `json:"min_clients,omitempty"`
	RoundDeadlineMs int   `json:"round_deadline_ms,omitempty"`
	SampleSize      int   `json:"sample_size,omitempty"`
	SampleSeed      int64 `json:"sample_seed,omitempty"`
	AsyncStaleness  int   `json:"async_staleness,omitempty"`
	Streaming       bool  `json:"streaming,omitempty"`

	NoScreen         bool `json:"no_screen,omitempty"`
	ClipNorms        bool `json:"clip_norms,omitempty"`
	QuarantineRounds int  `json:"quarantine_rounds,omitempty"`

	Compress  bool    `json:"compress,omitempty"`
	Quantize  string  `json:"quantize,omitempty"`
	TopK      float64 `json:"topk,omitempty"`
	Delta     bool    `json:"delta,omitempty"`
	QuantSeed int64   `json:"quant_seed,omitempty"`

	// Pipeline overlaps each round's checkpoint write with the next
	// round's broadcast (see flnet.ServerConfig.Pipeline).
	Pipeline bool `json:"pipeline,omitempty"`
}

// RoundDeadline returns the spec's per-round collection deadline.
func (s *JobSpec) RoundDeadline() time.Duration {
	return time.Duration(s.RoundDeadlineMs) * time.Millisecond
}

// SpecError is one typed validation failure of a JobSpec field — the
// admin API returns these in a 400 body so callers can machine-match the
// offending field instead of parsing prose.
type SpecError struct {
	// Field is the JSON field name ("" for document-level failures).
	Field string `json:"field,omitempty"`
	// Code classifies the failure: "malformed" (undecodable document),
	// "unknown_field", "missing", "invalid", or "conflict".
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// Error implements error.
func (e *SpecError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("spec: %s: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("spec: field %q: %s: %s", e.Field, e.Code, e.Message)
}

// SpecErrors is the full validation verdict for one JobSpec.
type SpecErrors []*SpecError

// Error implements error.
func (es SpecErrors) Error() string {
	msgs := make([]string, len(es))
	for i, e := range es {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "; ")
}

// maxSpecBytes bounds a POST /jobs body; a job spec is a small JSON
// document, never megabytes.
const maxSpecBytes = 1 << 20

// DecodeJobSpec strictly decodes one JobSpec document: unknown fields,
// trailing data, and oversized bodies are errors (never a silently
// half-read spec). The decoded spec is NOT yet validated — callers pair
// this with Validate before a job is constructed.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		code := "malformed"
		if strings.Contains(err.Error(), "unknown field") {
			code = "unknown_field"
		}
		return nil, SpecErrors{{Code: code, Message: err.Error()}}
	}
	// A second document (or any trailing token) is a malformed request,
	// not an ignorable tail.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, SpecErrors{{Code: "malformed", Message: "trailing data after the job spec document"}}
	}
	return spec, nil
}

// nameOK reports whether every byte of a job name is in the safe charset
// — the name becomes a file-path stem and a Prometheus label value, so
// separators and quotes are rejected outright.
func nameOK(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks every cross-field invariant the job's flnet server
// would refuse (and the path/label constraints only the control plane
// knows about), returning the full list of typed failures. A spec that
// passes can still fail job construction for environmental reasons (an
// unknown dataset name, a checkpoint recorded with a different seed) —
// but never with a half-constructed job: construction happens before the
// job is registered or its supervisor starts.
func (s *JobSpec) Validate() error {
	var errs SpecErrors
	add := func(field, code, msg string) { errs = append(errs, &SpecError{Field: field, Code: code, Message: msg}) }

	switch {
	case s.Name == "":
		add("name", "missing", "job name is required")
	case len(s.Name) > 64:
		add("name", "invalid", "job name longer than 64 bytes")
	case !nameOK(s.Name):
		add("name", "invalid", "job name may contain only letters, digits, '.', '_', and '-'")
	}
	if s.Dataset == "" {
		add("dataset", "missing", "dataset is required")
	}
	if s.Clients <= 0 {
		add("clients", "invalid", fmt.Sprintf("clients must be positive, got %d", s.Clients))
	}
	if s.Rounds <= 0 {
		add("rounds", "invalid", fmt.Sprintf("rounds must be positive, got %d", s.Rounds))
	}
	if s.Seed < 0 {
		add("seed", "invalid", fmt.Sprintf("seed must be non-negative, got %d", s.Seed))
	}
	if s.Records < 0 {
		add("records", "invalid", fmt.Sprintf("records must be non-negative, got %d", s.Records))
	}
	if s.MinClients < 0 || (s.Clients > 0 && s.MinClients > s.Clients) {
		add("min_clients", "invalid", fmt.Sprintf("min_clients must be in [0, clients], got %d", s.MinClients))
	}
	if s.SampleSize < 0 || (s.Clients > 0 && s.SampleSize > s.Clients) {
		add("sample_size", "invalid", fmt.Sprintf("sample_size must be in [0, clients], got %d", s.SampleSize))
	}
	if s.SampleSize > 0 && s.MinClients > s.SampleSize {
		add("min_clients", "conflict", fmt.Sprintf("min_clients %d exceeds sample_size %d: the quorum could never be met", s.MinClients, s.SampleSize))
	}
	if s.RoundDeadlineMs < 0 {
		add("round_deadline_ms", "invalid", fmt.Sprintf("round_deadline_ms must be non-negative, got %d", s.RoundDeadlineMs))
	}
	if s.AsyncStaleness < 0 {
		add("async_staleness", "invalid", fmt.Sprintf("async_staleness must be non-negative, got %d", s.AsyncStaleness))
	}
	if s.Aggregator != "" && !slices.Contains(fl.AggregatorNames, s.Aggregator) {
		add("aggregator", "invalid", fmt.Sprintf("aggregator must be one of %v, got %q", fl.AggregatorNames, s.Aggregator))
	}
	if s.MaxByzantine < 0 {
		add("max_byzantine", "invalid", fmt.Sprintf("max_byzantine must be non-negative, got %d", s.MaxByzantine))
	}
	quantized := false
	switch s.Quantize {
	case "", "none":
	case "int8", "int16":
		quantized = true
	default:
		add("quantize", "invalid", fmt.Sprintf("quantize must be \"none\", \"int8\", or \"int16\", got %q", s.Quantize))
	}
	if s.TopK != 0 && (s.TopK < 0 || s.TopK >= 1) {
		add("topk", "invalid", fmt.Sprintf("topk must be in (0,1), got %g", s.TopK))
	}
	if s.TopK != 0 && !quantized {
		add("topk", "conflict", "topk requires quantize")
	}
	if s.QuantSeed != 0 && !quantized {
		add("quant_seed", "conflict", "quant_seed is set but quantization is disabled; a resumed quantized federation would silently diverge")
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}
