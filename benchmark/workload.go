package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
)

// The load model every workload shares: a closed loop of 2 clients, each in
// every round, no deadline, one local epoch of batch 64, DINAR with Adagrad
// (the paper's configuration), server and clients in one process that runs
// one thread at a time. The host gives the benchmark two virtual CPUs of a
// shared machine but not two cores' worth of time: with both busy, a round's
// wall and CPU time moved by 30-50 % from one minute to the next (a spin
// loop on two threads did the same), with one busy by 3-8 %. So the clients
// train in turn on the one thread and the server runs when they wait.
const (
	numClients  = 2
	localEpochs = 1
	batchSize   = 64
	defenseName = "dinar"
	optimizer   = "adagrad"
	maxProcs    = 1

	// refSeconds is the measuring time (BENCHMARK.json's run_seconds) the
	// workloads' segment counts were calibrated for on the reference host.
	refSeconds = 30
	// runsPerWorkload is how many untraced runs -all makes of each workload,
	// on consecutive seeds: the number the acceptance quartiles are taken over.
	runsPerWorkload = 10
	// probeCalls is how often a traced run calls each directly probed
	// function; the median is reported.
	probeCalls = 20
)

// workload is one frozen federation configuration. A run repeats the
// federation ("segment") a fixed number of times with the same seed: the
// first round of every segment is warm-up, the rest are timed, and the
// bit-deterministic system must end every segment on the same state. The
// work of a run is therefore the same on every host and at every commit;
// only how long it takes differs.
type workload struct {
	Name string `json:"name"`
	// Why is the reason the workload exists (mirrored in BENCHMARK.json).
	Why     string `json:"why"`
	Dataset string `json:"dataset"`
	Records int    `json:"records"`
	// Rounds is the length of one segment, warm-up round included.
	Rounds int `json:"rounds"`
	// Segments is how many segments a run of refSeconds makes: calibrated
	// once so that a run lasts 24-31 s on the reference host when it is
	// quiet and 26-37 s, refSeconds on average, in one of its slow stretches,
	// then frozen (see segmentsFor).
	Segments int `json:"segments"`
	// InProc runs fl.NewSystem + System.RunRound: no sockets, no codec, no
	// checkpoints. The remaining fields configure the TCP path only.
	InProc    bool    `json:"inproc"`
	Quantize  string  `json:"quantize"`
	TopK      float64 `json:"topk"`
	Streaming bool    `json:"streaming"`
	Pipeline  bool    `json:"pipeline"`
	// AccuracyFloor is the lowest final accuracy any seed may produce. VGG11
	// reaches 0.67-0.93 on 32 classes. FCNN6 on 100 classes is still near
	// chance after ten rounds (2-21 of 160 test records right), so no floor
	// above 0 is safe on every seed there: its accuracy is only required to
	// repeat from segment to segment.
	AccuracyFloor float64 `json:"accuracy_floor"`
}

var workloads = []workload{
	{
		Name:    "vgg11_train_bound",
		Why:     "celeba/VGG11 with 0.3 MB frames: client training is over 85% of the round, so kernel work shows here and server-path work must not",
		Dataset: "celeba", Records: 1500, Rounds: 11, Segments: 12,
		AccuracyFloor: 0.3,
	},
	{
		Name:    "fcnn6_lossless_sync",
		Why:     "purchase100/FCNN6 with 3.9 MB frames, lossless flate+delta wire, materialized FedAvg, sequential durable checkpoints: codec, aggregation and checkpoint do most of the work",
		Dataset: "purchase100", Records: 800, Rounds: 11, Segments: 6,
		AccuracyFloor: 0,
	},
	{
		Name:    "fcnn6_quant_stream",
		Why:     "same task through the other use of the same layers: int8+top-k uploads, quantized delta broadcasts, streaming fold, pipelined checkpoints; a gain for one FCNN6 row must not cost the other",
		Dataset: "purchase100", Records: 800, Rounds: 11, Segments: 5,
		Quantize: "int8", TopK: 0.1, Streaming: true, Pipeline: true,
		AccuracyFloor: 0,
	},
	{
		Name:    "fcnn6_inproc",
		Why:     "same task through fl.NewSystem + RunRound with no sockets, codec or checkpoints: the plain baseline and the path every figure/table experiment runs",
		Dataset: "purchase100", Records: 800, Rounds: 11, Segments: 13, InProc: true,
		AccuracyFloor: 0,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// wireLabel is the codec label the server must report on /healthz for w.
func (w workload) wireLabel() string {
	if w.Quantize != "" {
		return "binary+flate+" + w.Quantize + "+topk+delta"
	}
	return "binary+flate+delta"
}

// segmentsFor is the number of segments a run of the given measuring time
// makes: the calibrated count scaled to the time, at least two (the second
// proves the first repeats) and, for a traced run, even (it alternates
// untraced and traced segments, and gives up a segment for the time its
// probes take). It depends on nothing else, so a faster or slower host or
// commit runs the same work.
func (w workload) segmentsFor(seconds float64, traced bool) int {
	n := int(math.Round(float64(w.Segments) * seconds / refSeconds))
	if traced && n%2 == 1 {
		n--
	}
	if n < 2 {
		n = 2
	}
	return n
}

// configHash is the content hash of everything that shapes a run's numbers:
// two results are comparable only when it matches (the hash-versioning
// idiom: a number can never be compared against a differently-shaped run).
// segments is the number of segments the run makes.
func (w workload) configHash(seed int64, segments int) string {
	blob, err := json.Marshal(struct {
		Workload    workload
		Clients     int
		LocalEpochs int
		BatchSize   int
		Defense     string
		Optimizer   string
		Seed        int64
		Segments    int
		GoMaxProcs  int
	}{w, numClients, localEpochs, batchSize, defenseName, optimizer, seed, segments, runtime.GOMAXPROCS(0)})
	if err != nil {
		panic(err) // plain value struct: cannot fail
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}
