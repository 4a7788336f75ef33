package dinar

import (
	"repro/internal/flnet"
	"repro/internal/service"
)

// JobBuilder adapts this package's server construction to the multi-tenant
// control plane: it reads a job spec as the ServerOptions a standalone
// dinar-server with the same flags would hold and returns their
// serverConfig, the construction NewMiddlewareServer performs, so a job's
// federation is the standalone server by construction. The spec is
// normalized in place (dataset and defense defaults) so the job's record
// and its clients derive the same configuration.
func JobBuilder() service.Builder {
	return func(spec *service.JobSpec) (flnet.ServerConfig, error) {
		opts := ServerOptions{
			Config: Config{
				Dataset:      spec.Dataset,
				Defense:      spec.Defense,
				Clients:      spec.Clients,
				Rounds:       spec.Rounds,
				Seed:         spec.Seed,
				Records:      spec.Records,
				Aggregator:   spec.Aggregator,
				MaxByzantine: spec.MaxByzantine,
			}.withDefaults(),
			MinClients:       spec.MinClients,
			RoundDeadline:    spec.RoundDeadline(),
			NoScreen:         spec.NoScreen,
			ClipNorms:        spec.ClipNorms,
			QuarantineRounds: spec.QuarantineRounds,
			SampleSize:       spec.SampleSize,
			SampleSeed:       spec.SampleSeed,
			AsyncStaleness:   spec.AsyncStaleness,
			Streaming:        spec.Streaming,
			Compress:         spec.Compress,
			Quantize:         spec.Quantize,
			TopK:             spec.TopK,
			Delta:            spec.Delta,
			QuantSeed:        spec.QuantSeed,
			Pipeline:         spec.Pipeline,
		}
		spec.Dataset, spec.Defense = opts.Config.Dataset, opts.Config.Defense
		return opts.serverConfig()
	}
}
