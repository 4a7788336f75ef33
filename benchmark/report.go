package main

import (
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (TestBenchmarkJSONMatchesCode); the bounds of the
// end-to-end metrics live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the federation sees, measured with
// tracing off. A failed client-round exchange is not a metric: it is
// counted in the result's failed/attempted.
var endToEnd = []metricDef{
	{"round_wall_ms_p50", "ms", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"cpu_s_per_round", "s", "lower"},
	{"wire_bytes_per_round", "B", "lower"},
	{"allocs_per_round", "count", "lower"},
	{"alloc_mb_per_round", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced run; a layer is a
// module of the repository. 0 means the workload bypasses the layer.
var perLayer = []metricDef{
	// Client blocking path (client 0), from the fl.Defense wrapper and
	// AfterRound.
	{"core.on_global_ms", "ms", "lower"},
	{"fl.client_train_ms", "ms", "lower"},
	{"fl.client_train_share", "ratio", "lower"},
	{"core.before_upload_ms", "ms", "lower"},
	{"flnet.client_upload_ms", "ms", "lower"},
	{"flnet.turnaround_ms", "ms", "lower"},
	// Server, from Reports() and the conn wrapper.
	{"flnet.wait_ms", "ms", "lower"},
	{"flnet.broadcast_ms", "ms", "lower"},
	{"fl.screen_ms", "ms", "lower"},
	{"fl.aggregate_ms", "ms", "lower"},
	{"flnet.upload_transfer_ms", "ms", "lower"},
	{"flnet.broadcast_write_ms", "ms", "lower"},
	{"flnet.round_tail_ms", "ms", "lower"},
	{"flnet.upload_bytes_per_client", "B", "lower"},
	{"flnet.broadcast_bytes_per_client", "B", "lower"},
	{"flnet.server_reads_per_round", "count", "lower"},
	{"flnet.server_writes_per_round", "count", "lower"},
	// Direct probes on captured states.
	{"flnet.encode_global_ms", "ms", "lower"},
	{"flnet.decode_global_ms", "ms", "lower"},
	{"flnet.encode_update_ms", "ms", "lower"},
	{"flnet.decode_update_ms", "ms", "lower"},
	{"fl.quant_encode_ms", "ms", "lower"},
	{"fl.quant_apply_ms", "ms", "lower"},
	{"fl.fedavg_ms", "ms", "lower"},
	{"fl.fold_ms_per_update", "ms", "lower"},
	{"fl.finalize_ms", "ms", "lower"},
	{"fl.screen_apply_ms", "ms", "lower"},
	{"checkpoint.save_ms", "ms", "lower"},
	{"checkpoint.load_ms", "ms", "lower"},
	{"checkpoint.file_bytes", "B", "lower"},
	{"nn.forward_ms_per_batch", "ms", "lower"},
	{"nn.backward_ms_per_batch", "ms", "lower"},
	{"optim.step_ms_per_batch", "ms", "lower"},
	{"nn.batches_per_round", "count", "lower"},
	// Set-up spans; with runtime.startup_ms they add up to setup_s.
	{"data.generate_ms", "ms", "lower"},
	{"model.build_ms", "ms", "lower"},
	{"flnet.register_ms", "ms", "lower"},
	{"runtime.startup_ms", "ms", "lower"},
	// Runtime.
	{"runtime.gc_cycles_per_round", "count", "lower"},
	{"runtime.gc_pause_ms_per_round", "ms", "lower"},
	{"runtime.heap_inuse_peak_mb", "MB", "lower"},
	// Ledger along client 0's blocking path; the shares sum to 1.
	{"ledger.client_share", "ratio", "lower"},
	{"ledger.wire_share", "ratio", "lower"},
	{"ledger.peer_wait_share", "ratio", "lower"},
	{"ledger.server_share", "ratio", "lower"},
	{"ledger.checkpoint_share", "ratio", "lower"},
	{"ledger.residual_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	// Seen by a user but not steady enough to gate (README.md says why);
	// both come from the traced run's untraced segments.
	{"round_wall_ms_p90", "ms", "lower"},
	{"final_accuracy", "ratio", "higher"},
	{"trace.round_samples", "count", "higher"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile of d by the nearest-rank rule (the
// smallest sample with at least a share q of the samples at or below it).
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s))*q+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// exchangeBytes is what one in-process round hands between server and
// clients: every client receives and returns one raw float64 state. The
// in-process workload reports it as wire_bytes_per_round because an
// end-to-end metric may never read 0; it moves only with the state's size.
func exchangeBytes(numState int) float64 { return float64(2 * numClients * 8 * numState) }

// endToEndMetrics computes the end-to-end metrics over the untraced
// segments of a run. The segments repeat one deterministic federation, and
// what differs between them is the host: another tenant's load slows two to
// ten of them in a row by up to a third, wall and CPU time alike, and never
// speeds one up. So each timing is taken per segment — the median round, and
// the means that show a stall or a collection inside the segment — and the
// run reports its quietest segment, the way a timing loop reports the best
// of its repeats. startup is what the process cost before main ran: a
// set-up time is that plus one segment's set-up, from the segment's start
// to its first broadcast written.
func endToEndMetrics(segs []*segment, startup time.Duration) map[string]float64 {
	var (
		setups, roundWall, perSecond, cpuPerRound []float64
		rounds                                    int
		mallocs, allocBytes                       uint64
		wire                                      float64
	)
	for _, s := range segs {
		n := float64(s.timedRounds())
		setups = append(setups, s.setupDone.Sub(s.start).Seconds())
		roundWall = append(roundWall, ms(percentile(s.roundWalls(false), 0.5)))
		perSecond = append(perSecond, n/s.timedWall().Seconds())
		cpuPerRound = append(cpuPerRound, (s.after.cpu-s.before.cpu).Seconds()/n)
		rounds += s.timedRounds()
		mallocs += s.after.mallocs - s.before.mallocs
		allocBytes += s.after.allocBytes - s.before.allocBytes
		if s.conns == nil {
			wire += exchangeBytes(s.numState) * n
		}
		for _, c := range s.conns {
			for _, e := range c.ex[firstBroadcastIndex+1 : firstBroadcastIndex+s.rounds] {
				wire += float64(e.wBytes + e.rBytes)
			}
		}
	}
	n := float64(rounds)
	return map[string]float64{
		"round_wall_ms_p50":    slices.Min(roundWall),
		"rounds_per_s":         slices.Max(perSecond),
		"cpu_s_per_round":      slices.Min(cpuPerRound),
		"wire_bytes_per_round": wire / n,
		"allocs_per_round":     float64(mallocs) / n,
		"alloc_mb_per_round":   float64(allocBytes) / n / (1 << 20),
		"peak_rss_mb":          peakRSSMB(),
		"setup_s":              startup.Seconds() + slices.Min(setups),
	}
}
