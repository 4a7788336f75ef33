package chaos

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
	"repro/internal/telemetry"
)

// reportSig renders a round report's deterministic fields so two runs can
// be compared for exact equality. Wall-clock timings are excluded, and the
// ID lists are sorted: membership is deterministic, arrival order is not.
// Sampled keeps its order — the cohort draw is a seeded permutation.
func reportSig(r flnet.RoundReport) string {
	sorted := func(ids []int) []int {
		out := append([]int(nil), ids...)
		sort.Ints(out)
		return out
	}
	return fmt.Sprintf("round=%d participants=%v dropped=%v rejected=%v quarantined=%v clipped=%v sampled=%v stale=%d err=%v",
		r.Round, sorted(r.Participants), sorted(r.Dropped), sorted(r.Rejected), sorted(r.Quarantined), sorted(r.Clipped), r.Sampled, r.Stale, r.Err)
}

// histCount extracts a histogram's _count sample from a Prometheus
// exposition.
func histCount(t *testing.T, exposition, name string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+"_count %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("exposition has no %s_count sample", name)
	return 0
}

// histSum extracts a histogram's _sum sample from a Prometheus
// exposition.
func histSum(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+"_sum %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("exposition has no %s_sum sample", name)
	return 0
}

// pipelineRun is one complete federation with checkpointing, returning
// its final state, reports, and the run's private telemetry registry.
func pipelineRun(t *testing.T, ctx context.Context, pipeline bool, ckpt string, rounds, numClients, dim int) ([]float64, []flnet.RoundReport, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	bed := newSampledBed(t, flnet.ServerConfig{
		NumClients:     numClients,
		Rounds:         rounds,
		InitialState:   make([]float64, dim),
		CheckpointPath: ckpt,
		Pipeline:       pipeline,
		Registry:       reg,
		IOTimeout:      30 * time.Second,
	}, &fleetsim.Fleet{
		N: numClients, Dim: dim, Seed: 77,
		// Arrival-order jitter: the identity must hold under perturbed
		// timing, not just the lockstep schedule.
		DelaySeed: 13, MaxDelay: 2 * time.Millisecond,
		IOTimeout: 30 * time.Second,
	})
	statsCh := make(chan *fleetsim.Stats, 1)
	type runResult struct {
		state []float64
		err   error
	}
	runCh := make(chan runResult, 1)
	go func() { statsCh <- bed.fleet.Run(ctx) }()
	go func() {
		st, err := bed.srv.Run(ctx)
		runCh <- runResult{state: st, err: err}
	}()
	res := <-runCh
	if res.err != nil {
		t.Fatalf("run (pipeline=%v): %v", pipeline, res.err)
	}
	<-statsCh
	// The served final state and the checkpoint chain's head must agree:
	// the head is the final round's snapshot, even when that write was
	// pipelined behind the last broadcast.
	snap, _, err := checkpoint.LoadLatestValid(ckpt)
	if err != nil {
		t.Fatalf("load checkpoint chain (pipeline=%v): %v", pipeline, err)
	}
	if !equalStates(res.state, snap.State) {
		t.Fatalf("pipeline=%v: checkpointed head state differs from the served final state", pipeline)
	}
	if snap.Round != rounds {
		t.Fatalf("pipeline=%v: checkpoint head at round %d, want %d", pipeline, snap.Round, rounds)
	}
	return res.state, bed.srv.Reports(), reg
}

func equalStates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPipelinedMatchesSequential is the pipelining property test: with
// checkpoint writes overlapped into the next round's broadcast, the
// final model, every round report, and the checkpoint chain's head must
// be bit-identical to the sequential server — and the overlap histograms
// must prove the pipeline actually ran.
func TestPipelinedMatchesSequential(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	const (
		numClients = 16
		rounds     = 6
		dim        = 2048
	)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()

	seqFinal, seqReports, seqReg := pipelineRun(t, ctx, false, filepath.Join(dir, "seq.ckpt"), rounds, numClients, dim)
	pipFinal, pipReports, pipReg := pipelineRun(t, ctx, true, filepath.Join(dir, "pip.ckpt"), rounds, numClients, dim)

	if !equalStates(seqFinal, pipFinal) {
		t.Fatal("pipelined final state differs from sequential")
	}
	if len(seqReports) != len(pipReports) {
		t.Fatalf("report counts differ: %d vs %d", len(seqReports), len(pipReports))
	}
	for i := range seqReports {
		if s, p := reportSig(seqReports[i]), reportSig(pipReports[i]); s != p {
			t.Errorf("round %d reports differ:\n sequential %s\n pipelined  %s", i, s, p)
		}
	}

	var seqText, pipText strings.Builder
	if err := telemetry.WritePrometheusMerged(&seqText, seqReg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheusMerged(&pipText, pipReg); err != nil {
		t.Fatal(err)
	}
	// Both modes time the checkpoint write itself.
	if got := histCount(t, pipText.String(), "dinar_flnet_round_tail_seconds"); got < rounds {
		t.Errorf("pipelined run recorded %d tail observations, want >= %d", got, rounds)
	}
	if got := histCount(t, seqText.String(), "dinar_flnet_round_tail_seconds"); got < rounds {
		t.Errorf("sequential run recorded %d tail observations, want >= %d", got, rounds)
	}
	// Only the pipelined mode joins: every join measures the stall and
	// the overlap won against the broadcast.
	if got := histCount(t, pipText.String(), "dinar_flnet_pipeline_overlap_seconds"); got < rounds-1 {
		t.Errorf("pipelined run recorded %d overlap observations, want >= %d", got, rounds-1)
	}
	if got := histCount(t, seqText.String(), "dinar_flnet_pipeline_overlap_seconds"); got != 0 {
		t.Errorf("sequential run recorded %d overlap observations, want 0", got)
	}

	// The measured phase budget (recorded in EXPERIMENTS.md): how much
	// checkpoint-tail time the pipeline hid behind the next round, and how
	// long any join stalled when the write outlived the round.
	t.Logf("sequential: checkpoint tail %.3f ms total over %d rounds",
		1e3*histSum(t, seqText.String(), "dinar_flnet_round_tail_seconds"), rounds)
	t.Logf("pipelined:  checkpoint tail %.3f ms total, overlap won %.3f ms, join stalls %.3f ms",
		1e3*histSum(t, pipText.String(), "dinar_flnet_round_tail_seconds"),
		1e3*histSum(t, pipText.String(), "dinar_flnet_pipeline_overlap_seconds"),
		1e3*histSum(t, pipText.String(), "dinar_flnet_pipeline_stall_seconds"))
}

// TestPipelinedDrainResumeIdentity extends the identity across a mid-run
// drain: a pipelined federation drained mid-flight (its in-flight
// checkpoint write joined, never torn) and resumed — still pipelined —
// must reproduce the uninterrupted sequential run bit-for-bit, round
// reports included.
func TestPipelinedDrainResumeIdentity(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	const (
		numClients = 12
		rounds     = 8
		dim        = 512
	)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()

	refFinal, refReports, _ := pipelineRun(t, ctx, false, filepath.Join(dir, "ref.ckpt"), rounds, numClients, dim)
	want := make(map[int]string, rounds)
	for _, r := range refReports {
		want[r.Round] = reportSig(r)
	}

	newFleet := func() *fleetsim.Fleet {
		return &fleetsim.Fleet{
			N: numClients, Dim: dim, Seed: 77,
			// Think-time jitter paces rounds into the tens of
			// milliseconds so the drain lands mid-federation.
			DelaySeed: 13, MaxDelay: 30 * time.Millisecond,
			IOTimeout: 30 * time.Second,
		}
	}
	ckpt := filepath.Join(dir, "resume.ckpt")
	cfg := flnet.ServerConfig{
		NumClients:     numClients,
		Rounds:         rounds,
		InitialState:   make([]float64, dim),
		CheckpointPath: ckpt,
		Pipeline:       true,
		IOTimeout:      30 * time.Second,
	}
	first := newSampledBed(t, cfg, newFleet())
	firstStats, firstErr := first.start(ctx)
	waitCheckpointRound(t, first.srv, 2)
	if err := first.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-firstErr; !errors.Is(err, flnet.ErrDraining) {
		t.Fatalf("drained run returned %v, want ErrDraining", err)
	}
	<-firstStats
	got := make(map[int]string, rounds)
	for _, r := range first.srv.Reports() {
		got[r.Round] = reportSig(r)
	}

	second := newSampledBed(t, cfg, newFleet())
	if start := second.srv.StartRound(); start < 2 || start >= rounds {
		t.Fatalf("resumed at round %d, want a mid-federation resume in [2, %d)", start, rounds)
	}
	secondStats, secondErr := second.start(ctx)
	if err := <-secondErr; err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	<-secondStats
	for _, r := range second.srv.Reports() {
		got[r.Round] = reportSig(r)
	}

	finalSnap, _, err := checkpoint.LoadLatestValid(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStates(finalSnap.State, refFinal) {
		t.Fatal("drain+resume pipelined final state differs from uninterrupted sequential run")
	}
	for round := 0; round < rounds; round++ {
		g, ok := got[round]
		if !ok {
			t.Fatalf("round %d never completed across drain + resume", round)
		}
		if g != want[round] {
			t.Errorf("round %d reports diverge:\n uninterrupted %s\n drain+resume  %s", round, want[round], g)
		}
	}
}
