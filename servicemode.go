package dinar

import (
	"repro/internal/fl"
	"repro/internal/service"
)

// JobBuilder adapts this package's model/defense construction to the
// multi-tenant control plane: given a job spec it builds the dataset's
// model, seeds and binds the configured defense, and returns the initial
// global state — through buildServerSide, the construction a
// single-tenant NewMiddlewareServer performs, so a job's federation is
// bit-identical to a standalone server with the same configuration. The
// spec is normalized in place (defense/dataset/aggregator defaults) so the
// job's flnet server and its clients derive the same configuration.
func JobBuilder() service.Builder {
	return func(spec *service.JobSpec) (fl.Defense, []float64, error) {
		cfg := Config{
			Dataset:      spec.Dataset,
			Defense:      spec.Defense,
			Clients:      spec.Clients,
			Rounds:       spec.Rounds,
			Seed:         spec.Seed,
			Records:      spec.Records,
			Aggregator:   spec.Aggregator,
			MaxByzantine: spec.MaxByzantine,
		}.withDefaults()
		spec.Dataset = cfg.Dataset
		spec.Defense = cfg.Defense
		spec.Aggregator = cfg.Aggregator
		return buildServerSide(cfg.flConfig(), cfg.Defense)
	}
}
