package flnet

import (
	"repro/internal/telemetry"
)

// Metrics bundles the network-layer server instruments: round lifecycle
// counters, per-phase round timing, registration/rejoin accounting, and
// the pipelined-checkpoint overlap histograms. A bundle belongs to one
// federation: it lives in the registry that federation's server was handed
// (service mode labels each job's with job="name"), so two servers in one
// process never merge counters. The wire byte/frame counters (wire.go) and
// the client-side counters below are process-scoped: they are per-process
// I/O totals, not per-federation state.
type Metrics struct {
	RoundsStarted         *telemetry.Counter
	RoundsCompleted       *telemetry.Counter
	StragglersEvicted     *telemetry.Counter
	ClientsEvicted        *telemetry.Counter
	Rejoins               *telemetry.Counter
	RegistrationsRejected *telemetry.Counter
	LiveClients           *telemetry.Gauge
	DrainNotices          *telemetry.Counter
	AdmissionShed         *telemetry.Counter

	RoundBroadcastSeconds *telemetry.Histogram
	RoundWaitSeconds      *telemetry.Histogram

	// Sampling, streaming, and async-mode instruments.
	SampledCohort      *telemetry.Gauge
	SampleReplacements *telemetry.Counter
	StreamingFallback  *telemetry.Counter
	AsyncStaleAccepted *telemetry.Counter
	AsyncStaleDropped  *telemetry.Counter
	AsyncBuffered      *telemetry.Gauge

	// Round-pipelining instruments: the tail is the per-round work that
	// does not need the next round's cohort (checkpoint encode + fsync);
	// pipelined mode overlaps it with the next round's broadcast/collect
	// and these histograms prove the overlap wins.
	RoundTailSeconds       *telemetry.Histogram
	PipelineOverlapSeconds *telemetry.Histogram
	PipelineStallSeconds   *telemetry.Histogram
}

// NewMetrics registers (or, when a resumed job reuses its registry,
// re-looks-up) the network-layer instrument bundle in r, the federation's
// registry (ServerConfig.Registry).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		RoundsStarted: r.Counter("dinar_flnet_rounds_started_total",
			"FL rounds the server began orchestrating"),
		RoundsCompleted: r.Counter("dinar_flnet_rounds_completed_total",
			"FL rounds that aggregated successfully"),
		StragglersEvicted: r.Counter("dinar_flnet_stragglers_evicted_total",
			"clients evicted for missing the round deadline"),
		ClientsEvicted: r.Counter("dinar_flnet_clients_evicted_total",
			"clients evicted for any reason (stragglers, dead connections, screen rejections)"),
		Rejoins: r.Counter("dinar_flnet_rejoins_total",
			"clients re-registered after the initial cohort formed"),
		RegistrationsRejected: r.Counter("dinar_flnet_registrations_rejected_total",
			"registration attempts rejected (malformed hello, version mismatch, duplicate id)"),
		LiveClients: r.Gauge("dinar_flnet_live_clients",
			"currently registered client sessions"),
		DrainNotices: r.Counter("dinar_flnet_drain_notices_total",
			"drain frames sent to clients (shutdown broadcast, draining registrants)"),
		AdmissionShed: r.Counter("dinar_flnet_admission_shed_total",
			"registration attempts shed by accept-path admission control (the cap on registrations in validation at once)"),

		RoundBroadcastSeconds: r.Histogram("dinar_flnet_round_broadcast_seconds",
			"slowest global-state send of the round (the broadcast critical path)", nil),
		RoundWaitSeconds: r.Histogram("dinar_flnet_round_wait_seconds",
			"round start to quorum decision (training + collection wall time)", nil),

		SampledCohort: r.Gauge("dinar_flnet_sampled_cohort",
			"clients sampled into the current round's cohort"),
		SampleReplacements: r.Counter("dinar_flnet_sample_replacements_total",
			"replacement clients drawn after a sampled cohort member failed or straggled"),
		StreamingFallback: r.Counter("dinar_flnet_streaming_fallback_total",
			"servers that requested streaming aggregation but fell back to materialized (non-streaming defense rule)"),
		AsyncStaleAccepted: r.Counter("dinar_flnet_async_stale_accepted_total",
			"staleness-weighted updates from earlier rounds folded into a later round"),
		AsyncStaleDropped: r.Counter("dinar_flnet_async_stale_dropped_total",
			"buffered updates dropped for exceeding the async staleness bound"),
		AsyncBuffered: r.Gauge("dinar_flnet_async_buffered",
			"exchanges carried over the last round's close, their updates due a later round's staleness-weighted fold"),

		RoundTailSeconds: r.Histogram("dinar_flnet_round_tail_seconds",
			"checkpoint encode+fsync duration per round (the round tail the pipeline overlaps)", nil),
		PipelineOverlapSeconds: r.Histogram("dinar_flnet_pipeline_overlap_seconds",
			"per round, how much checkpoint-tail time ran concurrently with the next round's broadcast/collect", nil),
		PipelineStallSeconds: r.Histogram("dinar_flnet_pipeline_stall_seconds",
			"per round, how long the round loop blocked waiting for the previous round's checkpoint write", nil),
	}
}

// Client-side counters are process-scoped: a client process dials exactly
// one federation and has no federation-scoped registry.
var (
	telClientReconnects = telemetry.NewCounter("dinar_flnet_client_reconnects_total",
		"reconnection attempts made by flnet clients in this process")
	telClientDrainWaits = telemetry.NewCounter("dinar_flnet_client_drain_waits_total",
		"drain back-off waits performed by flnet clients in this process")
)
