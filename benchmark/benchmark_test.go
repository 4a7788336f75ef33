package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	dinar "repro"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/model"
)

// tiny shrinks a workload to test scale, keeping its modes.
func tiny(w workload) workload {
	w.Records, w.Rounds, w.AccuracyFloor = 200, 3, 0
	return w
}

// TestEveryWorkloadEmitsEveryMetric is the smoke test: every workload, at
// tiny scale, untraced and traced, passes its own output checks and emits
// every metric the code declares, by name and with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			// No measuring time: exactly the two segments every run has.
			rec, err := runWorkload(context.Background(), tiny(w), 3, 0, traced, t.TempDir(), time.Millisecond, 2)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted != 2*3*numClients {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d problems=%v",
					w.Name, traced, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted, rec.Problems)
			}
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || d.Unit == "" {
					t.Errorf("%s traced=%v: metric %q missing or without its unit %q: %+v", w.Name, traced, d.Name, d.Unit, m)
				}
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
				}
			}
			if !traced {
				for _, d := range defs {
					if rec.Result.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, rec.Result.Metrics[d.Name].Value)
					}
				}
				continue
			}
			// A probe runs exactly when the workload runs through its layer.
			for name, exercised := range map[string]bool{
				"flnet.encode_global_ms": !w.InProc, "flnet.decode_update_ms": !w.InProc,
				"checkpoint.save_ms": !w.InProc, "checkpoint.file_bytes": !w.InProc,
				"fl.quant_encode_ms": w.Quantize != "", "fl.quant_apply_ms": w.Quantize != "",
				"fl.fedavg_ms": !w.Streaming, "fl.fold_ms_per_update": w.Streaming, "fl.finalize_ms": w.Streaming,
				"fl.screen_apply_ms": true, "nn.forward_ms_per_batch": true,
			} {
				if got := rec.Result.Metrics[name].Value; (got > 0) != exercised {
					t.Errorf("%s: %s = %v, but the workload exercising that layer is %v", w.Name, name, got, exercised)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code from
// diverging: same workloads with the same reasons, same metric names, units
// and directions, and the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the segment counts are calibrated for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q / %q (%d chars)", i, got, w.Name, w.Why, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// TestParityWithMiddleware holds the federation the benchmark assembles
// from flnet.NewServer/flnet.RunClient bit-identical to the product path,
// dinar.NewMiddlewareServer + dinar.RunMiddlewareClient with the same
// configuration, so the benchmark cannot drift from what it stands for.
func TestParityWithMiddleware(t *testing.T) {
	const seed = 5
	for _, name := range []string{"fcnn6_lossless_sync", "fcnn6_quant_stream"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		seg, err := runSegment(context.Background(), w, seed, 0, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		cfg := dinar.Config{
			Dataset: w.Dataset, Defense: defenseName, Clients: numClients, Rounds: w.Rounds,
			LocalEpochs: localEpochs, BatchSize: batchSize, Records: w.Records, Seed: seed,
		}
		srv, err := dinar.NewMiddlewareServer(dinar.ServerOptions{
			Addr: "127.0.0.1:0", Config: cfg, CheckpointPath: filepath.Join(t.TempDir(), "ckpt"),
			Compress: true, Delta: true, Quantize: w.Quantize, TopK: w.TopK,
			Streaming: w.Streaming, Pipeline: w.Pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		clientErrs := make([]error, numClients)
		for i := 0; i < numClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, clientErrs[i] = dinar.RunMiddlewareClient(context.Background(), dinar.ClientOptions{
					Addr: srv.Addr(), Config: cfg, ClientID: i, MaxRetries: -1,
				})
			}(i)
		}
		final, err := srv.Serve(context.Background())
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: middleware server: %v", name, err)
		}
		for i, cerr := range clientErrs {
			if cerr != nil {
				t.Fatalf("%s: middleware client %d: %v", name, i, cerr)
			}
		}
		if got := stateHash(final); got != seg.hash {
			t.Errorf("%s: benchmark federation ended on %s, middleware on %s", name, seg.hash, got)
		}
	}
}

// TestWrapDefenseKeepsOptionalInterfaces checks, for every defense the
// repository ships, that the client-side wrapper exposes exactly the
// optional interfaces the inner defense does, and that its hooks stamp the
// timeline and capture the probe states.
func TestWrapDefenseKeepsOptionalInterfaces(t *testing.T) {
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range defense.ExtendedNames {
		inner, err := defense.New(name, 1, numClients)
		if err != nil {
			t.Fatal(err)
		}
		if err := inner.Bind(fl.InfoOf(m)); err != nil {
			t.Fatal(err)
		}
		timelines := newClientTimelines(2)
		wrapped := wrapDefense(inner, timelines, 1)
		_, innerCohort := inner.(fl.CohortAware)
		_, wrappedCohort := wrapped.(fl.CohortAware)
		_, innerStore := inner.(privateStore)
		_, wrappedStore := wrapped.(privateStore)
		if innerCohort != wrappedCohort || innerStore != wrappedStore {
			t.Errorf("%s: cohort-aware %v→%v, private store %v→%v", name, innerCohort, wrappedCohort, innerStore, wrappedStore)
		}
		if (fl.StreamingOf(inner) == nil) != (fl.StreamingOf(wrapped) == nil) {
			t.Errorf("%s: streaming capability changed under the wrapper", name)
		}
		if wrapped.Name() != name {
			t.Errorf("wrapper of %s is named %q", name, wrapped.Name())
		}

		state := m.StateVector()
		for round := 0; round < 2; round++ {
			wrapped.OnGlobalModel(1, round, state)
			wrapped.BeforeUpload(round, state, &fl.Update{ClientID: 1, Round: round, State: m.StateVector(), NumSamples: 10})
		}
		tl := timelines[1]
		for round := 0; round < 2; round++ {
			if tl.ogEnter[round].IsZero() || tl.ogExit[round].Before(tl.ogEnter[round]) ||
				tl.buEnter[round].Before(tl.ogExit[round]) || tl.buExit[round].Before(tl.buEnter[round]) {
				t.Errorf("%s: round %d hooks not stamped in order", name, round)
			}
		}
		if tl.lastUpload == nil || tl.lastUpload.Round != 1 || len(tl.lastGlobal) != len(state) {
			t.Errorf("%s: round 1 states were not captured", name)
		}
	}
}
