// Command benchmark is the repository's round benchmark: it runs one
// federation workload in a closed loop, checks its outputs, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics (tracing on) as
// one JSON object on the last line of standard output. See README.md.
//
//	bash benchmark/run.sh --workload fcnn6_lossless_sync --seed 7 --seconds 30 --trace 0
//	bash benchmark/run.sh -all -results benchmark/out/a.json
//	bash benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// result is the object printed on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp records the host a run's numbers belong to.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Filesystem string  `json:"checkpoint_filesystem"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
	Time       string  `json:"time"`
}

// runRecord is everything one run of one workload leaves in the output
// directory (<workload>-trace<0|1>.json).
type runRecord struct {
	Workload   workload `json:"workload"`
	ConfigHash string   `json:"config_hash"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Stamp      stamp    `json:"stamp"`
	Segments   int      `json:"segments"`
	// StartupS is what the process cost before main ran (processStartup).
	StartupS float64 `json:"startup_s"`
	// RoundSamples is the number of round-wall samples behind the p50/p90.
	RoundSamples int `json:"round_samples"`
	// FinalStateSHA256 is the final global state every segment ended on.
	FinalStateSHA256 string   `json:"final_state_sha256"`
	FinalAccuracy    float64  `json:"final_accuracy"`
	Problems         []string `json:"problems,omitempty"`
	Result           result   `json:"result"`
	// PerSegment keeps each segment's raw figures, for looking into a run
	// whose numbers moved.
	PerSegment []segmentStats `json:"per_segment"`
}

type segmentStats struct {
	Traced      bool      `json:"traced"`
	SetupS      float64   `json:"setup_s"`
	RoundWallMs []float64 `json:"round_wall_ms"`
	CPUSeconds  float64   `json:"cpu_s"`
	Mallocs     uint64    `json:"mallocs"`
	GCCycles    uint32    `json:"gc_cycles"`
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func newStamp(dir string) stamp {
	st := stamp{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: os.Getenv("ROUNDBENCH_COMMIT"), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err == nil {
		if st.Filesystem = fsNames[int64(fs.Type)]; st.Filesystem == "" {
			st.Filesystem = fmt.Sprintf("%#x", fs.Type)
		}
	}
	if load, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(load), &st.LoadAvg1) //nolint:errcheck // zero on a malformed file
	}
	return st
}

// runWorkload runs w's fixed number of segments for the given measuring
// time and assembles the run's record. A traced run alternates untraced and
// traced segments, which yields the tracing overhead and checks that tracing
// does not perturb the result. startup is what the process cost before main
// ran; it is part of every set-up time. A traced run calls each probed
// function probeCalls times.
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, traced bool, outDir string, startup time.Duration, probeCalls int) (*runRecord, error) {
	epoch := time.Now()
	ckptDir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	segments := w.segmentsFor(seconds, traced)
	rec := &runRecord{
		Workload: w, ConfigHash: w.configHash(seed, segments), Seed: seed, Seconds: seconds,
		Traced: traced, Stamp: newStamp(ckptDir), Segments: segments, StartupS: startup.Seconds(),
	}
	var plain, withTrace []*segment
	var problems []string
	for i := 0; i < segments; i++ {
		seg, err := runSegment(ctx, w, seed, i, traced && i%2 == 1, ckptDir)
		rec.Result.Attempted += seg.attempted
		rec.Result.Failed += seg.failed
		if err != nil {
			return rec, err
		}
		stats := segmentStats{
			Traced: seg.traced, SetupS: seg.setupDone.Sub(seg.start).Seconds(),
			CPUSeconds: (seg.after.cpu - seg.before.cpu).Seconds(),
			Mallocs:    seg.after.mallocs - seg.before.mallocs, GCCycles: seg.after.gcCycles - seg.before.gcCycles,
		}
		for _, d := range seg.roundWalls(false) {
			stats.RoundWallMs = append(stats.RoundWallMs, ms(d))
		}
		rec.PerSegment = append(rec.PerSegment, stats)
		if seg.traced {
			withTrace = append(withTrace, seg)
		} else {
			plain = append(plain, seg)
		}
		if first := plain[0]; seg.hash != first.hash || seg.accuracy != first.accuracy {
			problems = append(problems, fmt.Sprintf("segment %d ended on state %s (accuracy %g), segment 0 on %s (%g): the federation is not deterministic",
				i, seg.hash[:12], seg.accuracy, first.hash[:12], first.accuracy))
		}
	}
	first := plain[0]
	rec.FinalStateSHA256 = first.hash
	rec.FinalAccuracy = first.accuracy
	if !(first.accuracy >= w.AccuracyFloor) { // also catches NaN
		problems = append(problems, fmt.Sprintf("final accuracy %g is below the workload's floor %g", first.accuracy, w.AccuracyFloor))
	}

	var values map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		last := withTrace[len(withTrace)-1]
		probes := map[string]float64{}
		in, err := probeInputsOf(last)
		if err == nil {
			err = runProbes(w, seed, in, ckptDir, probeCalls, probes)
		}
		if err != nil {
			return rec, err
		}
		values = perLayerMetrics(w, withTrace, plain, probes, startup)
		rec.RoundSamples = int(values["trace.round_samples"])
		var spans []span
		for _, s := range withTrace {
			spans = append(spans, spansOf(s, epoch)...)
		}
		if err := writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), spans); err != nil {
			return rec, err
		}
	} else {
		values = endToEndMetrics(plain, startup)
		for _, s := range plain {
			rec.RoundSamples += len(s.roundWalls(false))
		}
	}
	rec.Result.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			problems = append(problems, "metric "+d.Name+" was not measured")
		}
		rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Problems = problems
	rec.Result.Correct = len(problems) == 0 && rec.Result.Failed == 0
	return rec, nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printTable writes a run's metrics to w in a fixed, readable order.
func printTable(w *os.File, rec *runRecord) {
	fmt.Fprintf(w, "%s seed=%d traced=%v config=%s segments=%d round_samples=%d\n",
		rec.Workload.Name, rec.Seed, rec.Traced, rec.ConfigHash, rec.Segments, rec.RoundSamples)
	fmt.Fprintf(w, "final state sha256 %s  accuracy %.4f  exchanges failed %d/%d\n",
		rec.FinalStateSHA256, rec.FinalAccuracy, rec.Result.Failed, rec.Result.Attempted)
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// startupProbeArg makes the binary return from main at once; processStartup
// runs it that way to time a process that does nothing.
const startupProbeArg = "-startup-probe"

// processStartup measures what a process of this binary costs before its
// main does any work — exec, runtime and package initialisation, exit — as
// the median over a few children. Set-up time starts at the subprocess's
// start, so work a later change moves into package initialisation shows.
func processStartup() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	d := make([]time.Duration, 7)
	for i := range d {
		start := time.Now()
		if err := exec.Command(self, startupProbeArg).Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		d[i] = time.Since(start)
	}
	return percentile(d, 0.5), nil
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == startupProbeArg {
		return
	}
	// One running thread on any host (workload.go says why). The compute
	// pool sized itself at init.
	runtime.GOMAXPROCS(maxProcs)
	parallel.SetWorkers(maxProcs)

	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 7, "seed of every generated input")
		seconds = flag.Float64("seconds", refSeconds, "measuring time on the reference host; it fixes how many segments the run makes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", "out", "directory for run records, traces and checkpoints")
		all     = flag.Bool("all", false, "run every workload (ten untraced runs on consecutive seeds, one traced run) and write -results")
		results = flag.String("results", "", "with -all: the results file to write (default <out>/results.json)")
		compare = flag.Bool("compare", false, "compare two -all results files given as arguments")
		spec    = flag.String("spec", "", "with -compare: path of BENCHMARK.json (default: searched upward from the working directory)")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results files"))
		}
		ok, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1), *spec)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		if *results == "" {
			*results = filepath.Join(*outDir, "results.json")
		}
		if err := runAll(*seed, *seconds, *outDir, *results); err != nil {
			fatal(err)
		}
	default:
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		startup, err := processStartup()
		if err != nil {
			fatal(err)
		}
		// A run must end well inside the driver's 180 s limit even if a
		// federation wedges.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		defer cancel()
		rec, err := runWorkload(ctx, w, *seed, *seconds, *trace != 0, *outDir, startup, probeCalls)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stderr, rec)
		if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("%s-trace%d.json", w.Name, *trace)), rec); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rec.Result.Correct {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
