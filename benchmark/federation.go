package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// procCounters is the process-wide cost state read at the two ends of a
// segment's timed section.
type procCounters struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readProcCounters() procCounters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// heapInUse reads the live heap without stopping the world.
func heapInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// segment is one complete federation of w.Rounds rounds and everything the
// benchmark observed about it.
type segment struct {
	index  int
	traced bool
	rounds int

	// Set-up: start → data generated → models built → first broadcast
	// written (in-process: first RunRound about to start).
	start, dataDone, modelDone, setupDone time.Time

	timelines []*clientTimeline
	// TCP only: the server's accepted conns and what it reported.
	conns   []*countedConn
	reports []flnet.RoundReport
	tel     *flnet.Metrics
	// In-process only: the server core's per-round timing.
	aggTimings []fl.AggTiming

	// Process counters at the end of the warm-up round and of the last
	// round, and the live-heap peak sampled once per round when tracing.
	before, after procCounters
	heapPeak      uint64

	finalState []float64
	hash       string
	accuracy   float64
	// attempted and failed count client-round exchanges.
	attempted, failed int
	numState          int
}

// roundWalls returns the segment's timed round intervals at client 0: round
// r spans AfterRound(r-1) → AfterRound(r). Traced segments copy states for
// the probes in their last round, so callers comparing against them leave
// that round out on both sides (dropLast).
func (s *segment) roundWalls(dropLast bool) []time.Duration {
	after := s.timelines[0].after
	last := s.rounds
	if dropLast {
		last--
	}
	walls := make([]time.Duration, 0, last-1)
	for r := 1; r < last; r++ {
		walls = append(walls, after[r].Sub(after[r-1]))
	}
	return walls
}

// timedRounds and timedWall describe the whole timed section (every round
// but the warm-up).
func (s *segment) timedRounds() int { return s.rounds - 1 }
func (s *segment) timedWall() time.Duration {
	after := s.timelines[0].after
	return after[s.rounds-1].Sub(after[0])
}

func stateHash(state []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range state {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// equalStates compares bit patterns, so NaNs and signed zeros count.
func equalStates(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// afterRound builds client id's AfterRound hook: it stamps the round's end
// and, at client 0, reads the process counters at both ends of the timed
// section.
func (s *segment) afterRound(id int) func(round int) {
	tl := s.timelines[id]
	return func(round int) {
		tl.after[round] = time.Now()
		if id != 0 {
			return
		}
		switch round {
		case 0:
			s.before = readProcCounters()
		case s.rounds - 1:
			s.after = readProcCounters()
		}
		if s.traced {
			if h := heapInUse(); h > s.heapPeak {
				s.heapPeak = h
			}
		}
	}
}

// clientDataset generates the workload's data and partitions it exactly as
// dinar.RunMiddlewareClient does (every client process derives the same
// split from the seed; in one process it is derived once and shared).
func clientDataset(w workload, seed int64) (spec data.Spec, split *data.FLSplit, shards []*data.Dataset, err error) {
	spec, err = data.Lookup(w.Dataset)
	if err != nil {
		return spec, nil, nil, err
	}
	spec.Records = w.Records
	ds, err := data.Generate(spec, seed)
	if err != nil {
		return spec, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	split = data.NewFLSplit(ds, rng)
	shards, err = data.PartitionIID(split.Train, numClients, rng)
	return spec, split, shards, err
}

// newTrainer builds client id's local model and trainer as
// dinar.RunMiddlewareClient does.
func newTrainer(spec data.Spec, shard *data.Dataset, seed int64, id int) (*fl.Client, error) {
	m, err := model.Build(spec, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, err
	}
	opt := optim.New(optimizer, fl.DefaultLearningRate(spec.Name, optimizer))
	return fl.NewClient(id, m, shard, opt, batchSize, localEpochs, rand.New(rand.NewSource(seed+100+int64(id))))
}

// newDefense builds and binds a fresh DINAR defense instance for one side
// of the federation.
func newDefense(seed int64, info fl.ModelInfo) (fl.Defense, error) {
	def, err := defense.New(defenseName, seed+7, numClients)
	if err != nil {
		return nil, err
	}
	return def, def.Bind(info)
}

// runTCPSegment assembles the federation from flnet.NewServer and
// flnet.RunClient over loopback TCP — the same calls, in the same order and
// with the same seeds, as dinar.NewMiddlewareServer and
// dinar.RunMiddlewareClient (TestParityWithMiddleware holds the two
// bit-identical) — and runs it to completion.
func runTCPSegment(ctx context.Context, w workload, seed int64, seg *segment, ckptDir string) error {
	spec, split, shards, err := clientDataset(w, seed)
	if err != nil {
		return err
	}
	seg.dataDone = time.Now()

	serverModel, err := model.Build(spec, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return err
	}
	info := fl.InfoOf(serverModel)
	seg.numState = info.NumState
	// The server-side defense is deliberately not wrapped: a wrapper there
	// could hide fl.StreamingCapable and silently materialize the
	// streaming workload.
	serverDef, err := newDefense(seed, info)
	if err != nil {
		return err
	}
	trainers := make([]*fl.Client, numClients)
	clientDefs := make([]fl.Defense, numClients)
	for i := range trainers {
		if trainers[i], err = newTrainer(spec, shards[i], seed, i); err != nil {
			return err
		}
		if clientDefs[i], err = newDefense(seed, info); err != nil {
			return err
		}
		if seg.traced {
			clientDefs[i] = wrapDefense(clientDefs[i], seg.timelines, seg.rounds-1)
		}
	}
	seg.modelDone = time.Now()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rec := &wireRecorder{traced: seg.traced, epoch: seg.start}
	reg := telemetry.NewRegistry()
	seg.tel = flnet.NewMetrics(reg)
	flTel := fl.NewMetrics(reg)
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Listener:          &countingListener{Listener: ln, rec: rec},
		NumClients:        numClients,
		Rounds:            seg.rounds,
		Defense:           serverDef,
		InitialState:      serverModel.StateVector(),
		CheckpointPath:    filepath.Join(ckptDir, fmt.Sprintf("seg%d.ckpt", seg.index)),
		Dataset:           w.Dataset,
		Registry:          reg,
		Compress:          true,
		Delta:             true,
		Quantize:          w.Quantize,
		TopK:              w.TopK,
		Streaming:         w.Streaming,
		Pipeline:          w.Pipeline,
		SampleSeedDefault: seed,
		QuantSeedDefault:  seed,
	})
	if err != nil {
		ln.Close()
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg         sync.WaitGroup
		serverErr  error
		clientErrs = make([]error, numClients)
		finals     = make([][]float64, numClients)
	)
	wg.Add(1 + numClients)
	go func() {
		defer wg.Done()
		seg.finalState, serverErr = srv.Run(ctx)
		if serverErr != nil {
			cancel() // unblock the clients
		}
	}()
	for i := range trainers {
		go func(i int) {
			defer wg.Done()
			finals[i], clientErrs[i] = flnet.RunClient(ctx, flnet.ClientConfig{
				Addr:       ln.Addr().String(),
				Trainer:    trainers[i],
				Defense:    clientDefs[i],
				MaxRetries: -1, // a failed exchange must surface, not be retried away
				AfterRound: seg.afterRound(i),
			})
		}(i)
	}
	wg.Wait()

	seg.setupDone = seg.start.Add(time.Duration(rec.firstBroadcast.Load()))
	seg.conns = rec.conns
	seg.reports = srv.Reports()
	seg.attempted = seg.rounds * numClients
	if serverErr != nil {
		return fmt.Errorf("server: %w", serverErr)
	}
	seg.hash = stateHash(seg.finalState)

	// Output checks: every client received KindDone (RunClient returns
	// only then) carrying exactly the server's final state, and no
	// exchange was dropped, rejected or errored.
	var problems []error
	for i, cerr := range clientErrs {
		switch {
		case cerr != nil:
			seg.failed++
			problems = append(problems, fmt.Errorf("client %d: %w", i, cerr))
		case !equalStates(finals[i], seg.finalState):
			problems = append(problems, fmt.Errorf("client %d ended on a state other than the server's", i))
		}
	}
	for _, rep := range seg.reports {
		seg.failed += len(rep.Dropped) + len(rep.Rejected) + len(rep.Quarantined)
		if rep.Err != nil {
			problems = append(problems, fmt.Errorf("round %d: %w", rep.Round, rep.Err))
		}
	}
	problems = append(problems, checkModes(w, seg, srv.Health(), serverDef, flTel)...)
	if err := errors.Join(problems...); err != nil {
		return err
	}

	var sum float64
	for _, tr := range trainers {
		acc, _, err := tr.Evaluate(split.Test)
		if err != nil {
			return err
		}
		sum += acc
	}
	seg.accuracy = sum / numClients
	return nil
}

// checkModes asserts, from what the server itself reports, that the wire
// codecs, aggregation mode and checkpoint mode in force are the ones the
// workload declares — a workload that silently ran another mode would
// publish numbers under the wrong name.
func checkModes(w workload, seg *segment, h telemetry.Health, serverDef fl.Defense, flTel *fl.Metrics) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if h.Status != "done" || h.Round != seg.rounds {
		fail("server ended %q at round %d, want done at %d", h.Status, h.Round, seg.rounds)
	}
	if h.Wire != w.wireLabel() {
		fail("server offered wire %q, workload declares %q", h.Wire, w.wireLabel())
	}
	if h.CheckpointRound != seg.rounds {
		fail("last durable checkpoint is round %d, want %d", h.CheckpointRound, seg.rounds)
	}
	if len(seg.reports) != seg.rounds {
		fail("server reported %d rounds, want %d", len(seg.reports), seg.rounds)
	}
	for _, rep := range seg.reports {
		if len(rep.Participants) != numClients {
			fail("round %d aggregated %d clients, want %d", rep.Round, len(rep.Participants), numClients)
		}
	}
	// Every session negotiated the binary codec (the ack is the exchange
	// before round 0's broadcast) and saw exactly one broadcast per round
	// plus Done; the exchange indexing of the conn records relies on it.
	if len(seg.conns) != numClients {
		fail("server accepted %d conns, want %d", len(seg.conns), numClients)
	}
	for i, c := range seg.conns {
		if want := firstBroadcastIndex + seg.rounds + 1; len(c.ex) != want {
			fail("conn %d saw %d writes, want %d (wire ack, %d broadcasts, done)", i, len(c.ex)-1, want-1, seg.rounds)
		}
	}
	// Materialized aggregation holds the whole cohort's payloads at its
	// peak; streaming holds one payload plus the fixed-point accumulator.
	cohortBytes := int64(numClients * 8 * seg.numState)
	peak := flTel.AggUpdateBytesPeak.Value()
	streams := fl.StreamingOf(serverDef) != nil && seg.tel.StreamingFallback.Value() == 0 && peak != cohortBytes
	if w.Streaming != streams {
		fail("streaming aggregation in force = %v (peak payload %d B, cohort %d B), workload declares %v", streams, peak, cohortBytes, w.Streaming)
	}
	stalls := seg.tel.PipelineStallSeconds.Count()
	if w.Pipeline && stalls != int64(seg.rounds) || !w.Pipeline && stalls != 0 {
		fail("pipelined checkpoint joins = %d over %d rounds, workload declares pipeline=%v", stalls, seg.rounds, w.Pipeline)
	}
	if n := seg.tel.RoundTailSeconds.Count(); n != int64(seg.rounds) {
		fail("%d checkpoint writes over %d rounds", n, seg.rounds)
	}
	return errs
}

// runInProcSegment runs the same task through fl.NewSystem and
// System.RunRound, the path every figure/table experiment uses.
func runInProcSegment(ctx context.Context, w workload, seed int64, seg *segment) error {
	def, err := defense.New(defenseName, seed+7, numClients)
	if err != nil {
		return err
	}
	sys, err := fl.NewSystem(fl.Config{
		Dataset:      w.Dataset,
		Records:      w.Records,
		Clients:      numClients,
		Rounds:       seg.rounds,
		LocalEpochs:  localEpochs,
		BatchSize:    batchSize,
		LearningRate: fl.DefaultLearningRate(w.Dataset, optimizer),
		Optimizer:    optimizer,
		Seed:         seed,
		Parallel:     true,
	}, def)
	if err != nil {
		return err
	}
	seg.numState = len(sys.Server.GlobalState())
	if seg.traced {
		// Only the client-side hooks go through the wrapper; the server
		// core keeps the defense NewSystem bound.
		sys.Defense = wrapDefense(sys.Defense, seg.timelines, seg.rounds-1)
	}
	seg.setupDone = time.Now()
	seg.attempted = seg.rounds * numClients
	after := seg.afterRound(0)
	for r := 0; r < seg.rounds; r++ {
		if _, err := sys.RunRound(ctx); err != nil {
			seg.failed = seg.attempted - r*numClients
			return fmt.Errorf("round %d: %w", r, err)
		}
		after(r)
		seg.aggTimings = append(seg.aggTimings, sys.Server.LastAggTiming())
	}
	for _, rep := range sys.Server.ScreenReports() {
		seg.failed += len(rep.Rejected) + len(rep.Quarantined)
	}
	if seg.failed > 0 {
		return fmt.Errorf("screen excluded %d updates", seg.failed)
	}
	seg.finalState = sys.Server.GlobalState()
	seg.hash = stateHash(seg.finalState)
	if err := sys.FinalizeClients(); err != nil {
		return err
	}
	seg.accuracy, err = sys.MeanClientAccuracy(sys.Split.Test)
	return err
}

// runSegment runs segment number index of w.
func runSegment(ctx context.Context, w workload, seed int64, index int, traced bool, ckptDir string) (*segment, error) {
	seg := &segment{
		index: index, traced: traced, rounds: w.Rounds, start: time.Now(),
		timelines: newClientTimelines(w.Rounds),
	}
	var err error
	if w.InProc {
		err = runInProcSegment(ctx, w, seed, seg)
	} else {
		err = runTCPSegment(ctx, w, seed, seg, ckptDir)
	}
	if err != nil {
		return seg, fmt.Errorf("segment %d: %w", index, err)
	}
	return seg, nil
}
