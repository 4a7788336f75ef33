package chaos

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/faultnet"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
	"repro/internal/telemetry"
)

// scaleParams sizes one simulated-fleet federation.
type scaleParams struct {
	numClients int
	sampleSize int
	minClients int
	rounds     int
	dim        int
	streaming  bool
	// delaySeed jitters per-(client, round) think time; faultSeed assigns
	// faultnet Delay plans to a quarter of the accepted connections. Both
	// perturb arrival order without changing update payloads.
	delaySeed int64
	faultSeed int64
	// partition, when non-nil, makes clients drop the connection instead
	// of answering that round's global broadcast.
	partition func(id, round int) bool
	deadline  time.Duration
	// reg, when non-nil, is the registry the server counts into.
	reg *telemetry.Registry
}

// runScaleSoak runs one full federation of simulated clients over the
// in-memory listener and returns the final global state, the per-round
// reports, and the fleet's outcome counters.
func runScaleSoak(t *testing.T, p scaleParams) ([]float64, []flnet.RoundReport, *fleetsim.Stats) {
	t.Helper()
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: p.dim, NumState: p.dim}); err != nil {
		t.Fatal(err)
	}
	mem := flnet.ListenMem(p.numClients)
	var ln net.Listener = mem
	if p.faultSeed != 0 {
		// A quarter of the connections become stragglers: every server-side
		// read on them sleeps briefly, perturbing arrival order the way slow
		// links would.
		ln = faultnet.Listen(mem, faultnet.RandomSchedule(p.faultSeed,
			faultnet.Plan{}, faultnet.Plan{}, faultnet.Plan{},
			faultnet.Plan{Kind: faultnet.Delay, Delay: 500 * time.Microsecond}))
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:    p.numClients,
		MinClients:    p.minClients,
		SampleSize:    p.sampleSize,
		SampleSeed:    41,
		Streaming:     p.streaming,
		Rounds:        p.rounds,
		RoundDeadline: p.deadline,
		Defense:       def,
		InitialState:  make([]float64, p.dim),
		Listener:      ln,
		IOTimeout:     2 * time.Minute,
		Registry:      p.reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	fleet := &fleetsim.Fleet{
		N:         p.numClients,
		Dim:       p.dim,
		Seed:      17,
		DelaySeed: p.delaySeed,
		MaxDelay:  2 * time.Millisecond,
		Partition: p.partition,
		Dial:      mem.Dial,
		IOTimeout: 2 * time.Minute,
	}
	statsCh := make(chan *fleetsim.Stats, 1)
	go func() { statsCh <- fleet.Run(ctx) }()

	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server run (N=%d): %v", p.numClients, err)
	}
	stats := <-statsCh
	reports := srv.Reports()
	if len(reports) != p.rounds {
		t.Fatalf("N=%d: %d round reports, want %d", p.numClients, len(reports), p.rounds)
	}
	for _, r := range reports {
		if len(r.Participants) < p.minClients {
			t.Fatalf("N=%d round %d aggregated %d updates, quorum is %d",
				p.numClients, r.Round, len(r.Participants), p.minClients)
		}
	}
	return final, reports, stats
}

// TestScaleSoakStreamingIdentity proves the streaming fold is exactly the
// materialized aggregate: two federations with the same synthetic-update
// seed and the same sampling seed — but different think-time jitter,
// different faultnet straggler schedules, and opposite aggregation modes —
// must finish with bit-identical global models. The exact fixed-point
// accumulator makes the fold order-invariant, so arrival order (which the
// jitter deliberately scrambles) cannot leak into the result.
func TestScaleSoakStreamingIdentity(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	p := scaleParams{
		numClients: 400, sampleSize: 32, minClients: 32,
		rounds: 5, dim: 256,
	}
	if testing.Short() {
		p = scaleParams{
			numClients: 64, sampleSize: 12, minClients: 12,
			rounds: 3, dim: 64,
		}
	}

	p.streaming, p.delaySeed, p.faultSeed = false, 101, 7
	materialized, _, _ := runScaleSoak(t, p)

	p.streaming, p.delaySeed, p.faultSeed = true, 202, 8
	streamed, _, _ := runScaleSoak(t, p)

	if len(materialized) != p.dim || len(streamed) != p.dim {
		t.Fatalf("state lengths %d/%d, want %d", len(materialized), len(streamed), p.dim)
	}
	for i := range materialized {
		if materialized[i] != streamed[i] {
			t.Fatalf("coordinate %d: materialized %v != streamed %v (bit-exact identity violated)",
				i, materialized[i], streamed[i])
		}
	}
}

// TestScaleSoakPartitionedMemory is the overload soak: a sampled,
// streaming federation at two fleet sizes an order of magnitude apart,
// with ~30%% of every cohort dropping the connection mid-round. Each
// federation counts into a registry of its own, from which the test
// asserts that
//
//   - every round still completes (the quorum fallback resamples
//     replacements for partitioned cohort members),
//   - replacement draws actually happened, and
//   - peak aggregation memory is O(model): flat (within 2x) from the
//     small fleet to the 10x fleet, and far below the materialized
//     cohort cost of sampleSize x dim payloads.
func TestScaleSoakPartitionedMemory(t *testing.T) {
	leakcheck.GuardTest(t, 15*time.Second)
	small, large := 1000, 10000
	p := scaleParams{
		sampleSize: 64, minClients: 48, rounds: 4, dim: 512,
		streaming: true, delaySeed: 303, faultSeed: 9,
		deadline: 20 * time.Second,
	}
	if testing.Short() {
		small, large = 300, 1000
		p.sampleSize, p.minClients, p.rounds, p.dim = 32, 24, 3, 128
	}
	// A deterministic ~30% of (client, round) pairs are partitioned: the
	// client hangs up on receiving the global instead of replying.
	p.partition = func(id, round int) bool {
		return fl.Mix64(uint64(id)<<17^uint64(round)+0x51a4ed55)%10 < 3
	}

	peaks := make(map[int]int64)
	for _, n := range []int{small, large} {
		p.numClients = n
		p.reg = telemetry.NewRegistry()

		_, reports, stats := runScaleSoak(t, p)

		if stats.Partitions.Load() == 0 {
			t.Fatalf("N=%d: no partitions fired; the soak tested nothing", n)
		}
		replacements := flnet.NewMetrics(p.reg).SampleReplacements.Value()
		if replacements <= 0 {
			t.Fatalf("N=%d: no replacement draws despite %d partitions", n, stats.Partitions.Load())
		}
		sampled := 0
		for _, r := range reports {
			sampled += len(r.Sampled)
		}
		peak := fl.NewMetrics(p.reg).AggUpdateBytesPeak.Value()
		t.Logf("N=%d: %d rounds, %d sampled (incl. %v replacements), %d partitions, %d rejoins, peak agg bytes %v",
			n, len(reports), sampled, replacements, stats.Partitions.Load(), stats.Rejoins.Load(), peak)
		if peak <= 0 {
			t.Fatalf("N=%d: aggregation peak gauge never moved", n)
		}
		peaks[n] = peak
	}

	// O(model), not O(clients x model): 10x the fleet must not move the
	// aggregation peak by more than 2x, and the streaming peak must stay
	// well under the materialized floor of sampleSize update payloads.
	if peaks[large] > 2*peaks[small] {
		t.Fatalf("aggregation peak grew with fleet size: %v bytes at N=%d vs %v at N=%d",
			peaks[large], large, peaks[small], small)
	}
	materializedFloor := int64(p.sampleSize * p.dim * 8)
	if peaks[large] >= materializedFloor/2 {
		t.Fatalf("streaming peak %v bytes is not O(model); materialized cohort floor is %v",
			peaks[large], materializedFloor)
	}
}

// TestScaleSoakAsync drives the async staleness-weighted mode at fleet
// scale: rounds never wait for stragglers, partitioned clients' redials
// land as buffered late updates, and the federation still completes every
// round with a quorum.
func TestScaleSoakAsync(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	p := scaleParams{
		numClients: 500, sampleSize: 48, minClients: 32,
		rounds: 5, dim: 128,
		streaming: true, delaySeed: 404, faultSeed: 11,
		deadline: 10 * time.Second,
	}
	if testing.Short() {
		p.numClients, p.sampleSize, p.minClients, p.rounds, p.dim = 120, 24, 16, 3, 64
	}
	p.partition = func(id, round int) bool {
		return fl.Mix64(uint64(id)<<9^uint64(round)+0x2545f491)%10 < 2
	}
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: p.dim, NumState: p.dim}); err != nil {
		t.Fatal(err)
	}
	mem := flnet.ListenMem(p.numClients)
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:     p.numClients,
		MinClients:     p.minClients,
		SampleSize:     p.sampleSize,
		SampleSeed:     43,
		Streaming:      p.streaming,
		AsyncStaleness: 2,
		Rounds:         p.rounds,
		RoundDeadline:  p.deadline,
		Defense:        def,
		InitialState:   make([]float64, p.dim),
		Listener:       mem,
		IOTimeout:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	fleet := &fleetsim.Fleet{
		N: p.numClients, Dim: p.dim, Seed: 19,
		DelaySeed: p.delaySeed, MaxDelay: 2 * time.Millisecond,
		Partition: p.partition, Dial: mem.Dial, IOTimeout: time.Minute,
	}
	statsCh := make(chan *fleetsim.Stats, 1)
	go func() { statsCh <- fleet.Run(ctx) }()
	final, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := <-statsCh
	if len(final) != p.dim {
		t.Fatalf("final state has %d values, want %d", len(final), p.dim)
	}
	reports := srv.Reports()
	if len(reports) != p.rounds {
		t.Fatalf("%d round reports, want %d", len(reports), p.rounds)
	}
	stale := 0
	for _, r := range reports {
		if len(r.Participants) < p.minClients {
			t.Fatalf("round %d aggregated %d updates, quorum is %d", r.Round, len(r.Participants), p.minClients)
		}
		stale += r.Stale
	}
	if stats.Partitions.Load() == 0 {
		t.Fatal("no partitions fired; the async soak tested nothing")
	}
	t.Logf("async soak: %d rounds, %d stale folds, %d partitions, %d rejoins",
		len(reports), stale, stats.Partitions.Load(), stats.Rejoins.Load())
}
