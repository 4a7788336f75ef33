package fl

import (
	"repro/internal/telemetry"
)

// Metrics bundles the FL-core server-side instruments: screen verdicts,
// quarantine occupancy, and screen/aggregate phase timings. A bundle
// belongs to one federation: it lives in the registry that federation's
// server was handed, so two servers in one process never merge their
// counters.
type Metrics struct {
	ScreenSeconds       *telemetry.Histogram
	AggregateSeconds    *telemetry.Histogram
	RoundsAggregated    *telemetry.Counter
	ScreenAccepted      *telemetry.Counter
	ScreenRejected      *telemetry.Counter
	ScreenClipped       *telemetry.Counter
	ScreenQuarantined   *telemetry.Counter
	QuarantineOccupancy *telemetry.Gauge
	AggUpdateBytesPeak  *telemetry.Gauge
}

// NewMetrics registers (or, when a resumed job reuses its registry,
// re-looks-up) the FL-core instrument bundle in r, the federation's
// registry. A Server or Screen starts on a registry of its own, which nobody
// else can reach, until SetMetrics hands it its federation's bundle.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		ScreenSeconds: r.Histogram("dinar_fl_screen_seconds",
			"per-round update-screen duration on the server", nil),
		AggregateSeconds: r.Histogram("dinar_fl_aggregate_seconds",
			"per-round defense-aggregation duration on the server", nil),
		RoundsAggregated: r.Counter("dinar_fl_rounds_aggregated_total",
			"rounds the FL core aggregated successfully"),
		ScreenAccepted: r.Counter("dinar_fl_screen_accepted_total",
			"updates that passed the Byzantine screen (clipped ones included)"),
		ScreenRejected: r.Counter("dinar_fl_screen_rejected_total",
			"updates the Byzantine screen rejected"),
		ScreenClipped: r.Counter("dinar_fl_screen_clipped_total",
			"updates whose deltas the screen norm-clipped"),
		ScreenQuarantined: r.Counter("dinar_fl_screen_quarantined_total",
			"updates dropped because the sender was serving a quarantine penalty"),
		QuarantineOccupancy: r.Gauge("dinar_fl_quarantine_occupancy",
			"clients currently serving a quarantine penalty"),
		AggUpdateBytesPeak: r.Gauge("dinar_fl_agg_update_bytes_peak",
			"peak bytes of client update payloads (plus any streaming accumulator) resident in the aggregation path; the materialized path holds the whole cohort, the streaming path one update"),
	}
}

// telClientTrainSeconds is process-scoped: it is recorded on the client
// side of the wire, where there is no federation-scoped registry (a client
// process trains for exactly one federation).
var telClientTrainSeconds = telemetry.NewHistogram("dinar_fl_client_train_seconds",
	"one client's local-training duration for one round", nil)
