package metrics

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Phase labels a memory sampling point in the round pipeline.
type Phase int

const (
	// PhaseTrain samples are taken right after one client's local
	// training (plus its client-side defense work).
	PhaseTrain Phase = iota
	// PhaseAggregate samples are taken right after the server's
	// defense-aggregation step.
	PhaseAggregate
	numPhases
)

// Heap telemetry: the latest sampled heap-in-use plus per-phase
// high-water marks, exposed on /metrics so a live federation's memory can
// be watched without a CostMeter.
var (
	telHeapInuse = telemetry.NewGauge("dinar_heap_inuse_bytes",
		"heap in use at the most recent cost-meter sample (process-global)")
	telHeapPeakTrain = telemetry.NewGauge("dinar_heap_train_peak_bytes",
		"peak heap in use sampled at client-training points (process-global)")
	telHeapPeakAgg = telemetry.NewGauge("dinar_heap_aggregate_peak_bytes",
		"peak heap in use sampled at server-aggregation points (process-global)")
)

// CostMeter accumulates the cost metrics of the paper's Table 3: client-side
// training duration per FL round, server-side aggregation duration, and peak
// memory in use. It is safe for concurrent use (clients train in parallel
// goroutines).
//
// Memory attribution caveat: every sample reads runtime.MemStats.HeapInuse,
// which is process-global. With parallel clients a train-phase sample
// therefore includes every concurrently-training sibling's buffers, so the
// per-phase peaks are an upper bound on any single client's footprint, not
// a per-client measurement — exact per-client attribution is impossible
// from a shared Go heap. The per-phase split (train vs aggregate) is the
// finest attribution the process-level counter supports; Table 3 reports
// it with this caveat documented.
type CostMeter struct {
	mu sync.Mutex

	clientTrain []time.Duration
	serverAgg   []time.Duration
	peakAllocB  uint64
	peakPhaseB  [numPhases]uint64
	extraBytes  uint64 // defense-attributed buffer bytes (noise, masks, ...)
}

// NewCostMeter returns an empty cost meter.
func NewCostMeter() *CostMeter { return &CostMeter{} }

// AddClientTrain records the duration of one client's local training for one
// round.
func (c *CostMeter) AddClientTrain(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientTrain = append(c.clientTrain, d)
}

// AddServerAgg records the duration of one server aggregation.
func (c *CostMeter) AddServerAgg(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serverAgg = append(c.serverAgg, d)
}

// AddDefenseBytes attributes additional buffer memory to the active defense
// (e.g. per-parameter noise vectors, compression residuals, pairwise masks).
func (c *CostMeter) AddDefenseBytes(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.extraBytes += n
}

// SamplePhase reads the runtime heap-in-use size, attributes the sample to
// phase, and keeps the per-phase and overall maxima (also mirrored to the
// telemetry gauges). See the CostMeter doc for the process-global
// semantics of the sample.
func (c *CostMeter) SamplePhase(p Phase) {
	if p < 0 || p >= numPhases {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	telHeapInuse.Set(int64(ms.HeapInuse))
	switch p {
	case PhaseTrain:
		telHeapPeakTrain.SetMax(int64(ms.HeapInuse))
	case PhaseAggregate:
		telHeapPeakAgg.SetMax(int64(ms.HeapInuse))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ms.HeapInuse > c.peakAllocB {
		c.peakAllocB = ms.HeapInuse
	}
	if ms.HeapInuse > c.peakPhaseB[p] {
		c.peakPhaseB[p] = ms.HeapInuse
	}
}

// CostReport is an immutable snapshot of a CostMeter.
type CostReport struct {
	// MeanClientTrain is the mean per-round client training duration.
	MeanClientTrain time.Duration
	// MeanServerAgg is the mean server aggregation duration.
	MeanServerAgg time.Duration
	// PeakAllocBytes is the peak sampled heap-in-use across all phases.
	// Process-global: with parallel clients it includes concurrently
	// training siblings (see the CostMeter doc).
	PeakAllocBytes uint64
	// PeakTrainBytes / PeakAggBytes split the peak by sampling phase,
	// with the same process-global caveat.
	PeakTrainBytes uint64
	PeakAggBytes   uint64
	// DefenseBytes is the defense-attributed buffer memory. Unlike the
	// heap peaks this is exact: defenses account their own allocations.
	DefenseBytes uint64
}

// Report returns the current snapshot.
func (c *CostMeter) Report() CostReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CostReport{
		MeanClientTrain: meanDuration(c.clientTrain),
		MeanServerAgg:   meanDuration(c.serverAgg),
		PeakAllocBytes:  c.peakAllocB,
		PeakTrainBytes:  c.peakPhaseB[PhaseTrain],
		PeakAggBytes:    c.peakPhaseB[PhaseAggregate],
		DefenseBytes:    c.extraBytes,
	}
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// Overhead returns the relative overhead of `got` versus `baseline` as a
// percentage (e.g. +35 means 35% slower). A zero baseline yields 0.
func Overhead(got, baseline time.Duration) float64 {
	if baseline == 0 {
		return 0
	}
	return (float64(got)/float64(baseline) - 1) * 100
}
