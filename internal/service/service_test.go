package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
)

// testBuilder is the control-plane seam without the full dinar model
// stack: a "none" defense over a dim-sized synthetic model, where dim
// rides in spec.Records. The real binary plugs in dinar.JobBuilder here.
func testBuilder() Builder {
	return func(spec *JobSpec) (fl.Defense, []float64, error) {
		dim := spec.Records
		if dim <= 0 {
			dim = 8
		}
		def := defense.NewNone()
		if err := def.Bind(fl.ModelInfo{NumParams: dim, NumState: dim}); err != nil {
			return nil, nil, err
		}
		return def, make([]float64, dim), nil
	}
}

func newTestService(t *testing.T, stateDir string, front net.Listener) *Service {
	t.Helper()
	svc, err := New(Options{
		Listener: front,
		StateDir: stateDir,
		Builder:  testBuilder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func jobDim(spec JobSpec) int {
	if spec.Records > 0 {
		return spec.Records
	}
	return 8
}

// runFleet drives spec.Clients simulated clients for the named job.
func runFleet(ctx context.Context, spec JobSpec, dial func(context.Context) (net.Conn, error)) *fleetsim.Stats {
	fleet := &fleetsim.Fleet{
		N:    spec.Clients,
		Dim:  jobDim(spec),
		Seed: spec.Seed,
		Job:  spec.Name,
		Dial: dial,
	}
	return fleet.Run(ctx)
}

// referenceFinal runs the same federation single-tenant (a bare flnet
// server, no control plane) and returns its final global state — the
// bit-identical baseline every service-mode assertion compares against.
func referenceFinal(t *testing.T, spec JobSpec) []float64 {
	t.Helper()
	ref := spec
	def, initial, err := testBuilder()(&ref)
	if err != nil {
		t.Fatal(err)
	}
	mem := flnet.ListenMem(ref.Clients)
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:        ref.Clients,
		MinClients:        ref.MinClients,
		Rounds:            ref.Rounds,
		RoundDeadline:     ref.RoundDeadline(),
		SampleSize:        ref.SampleSize,
		SampleSeed:        ref.SampleSeed,
		SampleSeedDefault: ref.Seed,
		AsyncStaleness:    ref.AsyncStaleness,
		Streaming:         ref.Streaming,
		Defense:           def,
		InitialState:      initial,
		Listener:          mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	finalCh := make(chan []float64, 1)
	go func() {
		final, err := srv.Run(ctx)
		if err != nil {
			t.Errorf("reference run: %v", err)
		}
		finalCh <- final
	}()
	refSpec := ref
	refSpec.Name = "" // single-tenant server: no routing, plain hellos
	runFleet(ctx, refSpec, mem.Dial)
	return <-finalCh
}

// waitState polls until the job reaches the wanted lifecycle state.
func waitState(t *testing.T, svc *Service, name string, want JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := svc.JobStatus(name)
		if err == nil && st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %q never reached %s (last: %+v, err %v)", name, want, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJob(t *testing.T, api string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(api+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func equalVec(a, b []float64) bool {
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

// TestServiceConcurrentJobs is the acceptance soak: one service process
// hosts three named jobs with different shapes (one pipelined, one
// cohort-sampled) over a shared in-memory listener; every job must
// finish and its final global model must be bit-identical to a
// single-tenant run of the same federation.
func TestServiceConcurrentJobs(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(64)
	svc := newTestService(t, t.TempDir(), mem)
	api := httptest.NewServer(svc.AdminMux())
	defer api.Close()

	specs := []JobSpec{
		{Name: "alpha", Dataset: "synth", Clients: 6, Rounds: 4, Seed: 11, Records: 16},
		{Name: "beta", Dataset: "synth", Clients: 4, Rounds: 3, Seed: 22, Records: 8, SampleSize: 3, MinClients: 3},
		{Name: "gamma", Dataset: "synth", Clients: 5, Rounds: 5, Seed: 33, Records: 12, Pipeline: true},
	}
	for _, spec := range specs {
		resp := postJob(t, api.URL, spec)
		if resp.StatusCode != http.StatusCreated {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("create %s: status %d: %s", spec.Name, resp.StatusCode, body)
		}
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec JobSpec) {
			defer wg.Done()
			stats := runFleet(ctx, spec, mem.Dial)
			if got := stats.Done.Load(); got != int64(spec.Clients) {
				t.Errorf("job %s: %d/%d clients finished (gaveUp=%d)", spec.Name, got, spec.Clients, stats.GaveUp.Load())
			}
		}(spec)
	}
	wg.Wait()

	for _, spec := range specs {
		waitState(t, svc, spec.Name, JobDone, 30*time.Second)
		j, err := svc.job(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFinal(t, spec)
		if !equalVec(j.FinalState(), want) {
			t.Errorf("job %s: service-mode final state differs from single-tenant run", spec.Name)
		}
	}

	// The merged exposition must label every job's samples and emit one
	// header per metric name.
	resp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(metrics)
	for _, spec := range specs {
		want := fmt.Sprintf("dinar_flnet_rounds_completed_total{job=%q} %d", spec.Name, spec.Rounds)
		if !strings.Contains(out, want) {
			t.Errorf("merged /metrics missing %q", want)
		}
	}
	if n := strings.Count(out, "# TYPE dinar_flnet_rounds_completed_total"); n != 1 {
		t.Errorf("merged /metrics has %d headers for one metric name", n)
	}
	// The pipelined job must have recorded its overlap histogram.
	if !strings.Contains(out, `dinar_flnet_pipeline_overlap_seconds_count{job="gamma"}`) {
		t.Error("pipelined job recorded no overlap histogram samples")
	}
}

// TestServiceRollingRestart proves the re-adoption path: jobs progress,
// the whole service drains (rolling restart), a new service generation
// on the same state dir re-adopts every job from its checkpoint chain,
// and the final models are still bit-identical to uninterrupted
// single-tenant runs.
func TestServiceRollingRestart(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	stateDir := t.TempDir()
	specs := []JobSpec{
		{Name: "jobx", Dataset: "synth", Clients: 4, Rounds: 8, Seed: 5, Records: 8},
		{Name: "joby", Dataset: "synth", Clients: 3, Rounds: 8, Seed: 6, Records: 8, Pipeline: true},
	}

	var front atomic.Pointer[flnet.MemListener]
	front.Store(flnet.ListenMem(32))
	// A closed front door fails the dial; the clients' retry budget rides
	// out the gap until the next generation's listener is swapped in.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dial := func(ctx context.Context) (net.Conn, error) { return front.Load().Dial(ctx) }

	svc1 := newTestService(t, stateDir, front.Load())
	for _, spec := range specs {
		if _, err := svc1.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec JobSpec) {
			defer wg.Done()
			// The restart gap burns retries without progress ("not
			// accepting" rejections while the job re-adopts), so the
			// budget is far above the default.
			fleet := &fleetsim.Fleet{
				N: spec.Clients, Dim: jobDim(spec), Seed: spec.Seed, Job: spec.Name,
				Dial: dial, MaxRetries: 500,
				// Think time keeps a round (the slowest of three clients)
				// slower than the 5 ms status poll below: on a host with
				// sub-millisecond fsync all eight rounds otherwise finish
				// before the restart can land mid-run.
				DelaySeed: 1, MaxDelay: 40 * time.Millisecond,
			}
			stats := fleet.Run(ctx)
			if got := stats.Done.Load(); got != int64(spec.Clients) {
				t.Errorf("job %s: %d/%d clients finished (gaveUp=%d)", spec.Name, got, spec.Clients, stats.GaveUp.Load())
			}
		}(spec)
	}

	// Let both federations make real progress before the restart.
	for _, spec := range specs {
		deadline := time.Now().Add(time.Minute)
		for {
			st, err := svc1.JobStatus(spec.Name)
			if err == nil && st.Health != nil && st.Health.CheckpointRound >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never checkpointed round 2", spec.Name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	drainCtx, drainCancel := context.WithTimeout(context.Background(), time.Minute)
	if err := svc1.Shutdown(drainCtx); err != nil {
		t.Fatalf("rolling-restart drain: %v", err)
	}
	drainCancel()

	// Next process generation: same state dir, fresh front door.
	front.Store(flnet.ListenMem(32))
	svc2 := newTestService(t, stateDir, front.Load())
	for _, spec := range specs {
		st := waitState(t, svc2, spec.Name, JobRunning, 30*time.Second)
		if st.StartRound < 2 {
			t.Errorf("job %s re-adopted from round %d, want >= 2", spec.Name, st.StartRound)
		}
	}

	wg.Wait()
	for _, spec := range specs {
		waitState(t, svc2, spec.Name, JobDone, 30*time.Second)
		j, err := svc2.job(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFinal(t, spec)
		if !equalVec(j.FinalState(), want) {
			t.Errorf("job %s: resumed final state differs from uninterrupted single-tenant run", spec.Name)
		}
	}
}

// TestJobChurnLeakHammer is the satellite leak check: create → run →
// delete (some deleted mid-run, hard-cancelled) many times over one
// service; the goroutine count must return to baseline.
func TestJobChurnLeakHammer(t *testing.T) {
	chaos.GuardTest(t, 10*time.Second)
	mem := flnet.ListenMem(32)
	svc := newTestService(t, t.TempDir(), mem)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for i := 0; i < 9; i++ {
		spec := JobSpec{
			Name: fmt.Sprintf("churn-%d", i), Dataset: "synth",
			Clients: 3, Rounds: 2, Seed: int64(100 + i), Records: 4,
		}
		if _, err := svc.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			// Delete mid-run: the fleet is still dialing when the job is
			// hard-cancelled; clients must fail fast, not hang.
			fleetDone := make(chan *fleetsim.Stats, 1)
			go func() { fleetDone <- runFleet(ctx, spec, mem.Dial) }()
			time.Sleep(2 * time.Millisecond)
			if err := svc.DeleteJob(spec.Name); err != nil {
				t.Fatal(err)
			}
			select {
			case <-fleetDone:
			case <-time.After(time.Minute):
				t.Fatalf("fleet for deleted job %s hung", spec.Name)
			}
		} else {
			stats := runFleet(ctx, spec, mem.Dial)
			if got := stats.Done.Load(); got != int64(spec.Clients) {
				t.Fatalf("job %s: %d/%d clients finished", spec.Name, got, spec.Clients)
			}
			waitState(t, svc, spec.Name, JobDone, 30*time.Second)
			if err := svc.DeleteJob(spec.Name); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.JobStatus(spec.Name); err == nil {
			t.Fatalf("job %s still registered after delete", spec.Name)
		}
	}
}

// TestAdminAPIValidation is the satellite input-validation check: bad
// specs are refused with typed 400 bodies before any job state exists.
func TestAdminAPIValidation(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(8)
	svc := newTestService(t, t.TempDir(), mem)
	api := httptest.NewServer(svc.AdminMux())
	defer api.Close()

	expectSpecError := func(t *testing.T, resp *http.Response, field, code string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("undecodable error body: %v", err)
		}
		for _, f := range body.Fields {
			if f.Field == field && f.Code == code {
				return
			}
		}
		t.Fatalf("400 body lacks %s/%s: %+v", field, code, body)
	}

	resp := postJob(t, api.URL, JobSpec{Name: "bad", Dataset: "synth", Clients: 4, Rounds: -1})
	expectSpecError(t, resp, "rounds", "invalid")
	resp = postJob(t, api.URL, JobSpec{Name: "bad", Dataset: "synth", Clients: 4, Rounds: 2, SampleSize: 2, MinClients: 3})
	expectSpecError(t, resp, "min_clients", "conflict")
	resp = postJob(t, api.URL, JobSpec{Name: "bad", Dataset: "synth", Clients: 4, Rounds: 2, QuantSeed: 9})
	expectSpecError(t, resp, "quant_seed", "conflict")

	rawPost := func(doc string) *http.Response {
		resp, err := http.Post(api.URL+"/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = rawPost(`{"name":"bad","dataset":"synth","clients":2,"rounds":1,"surprise":1}`)
	expectSpecError(t, resp, "", "unknown_field")
	resp = rawPost(`{{{`)
	expectSpecError(t, resp, "", "malformed")

	// None of the refused specs may have left a job behind.
	listResp, err := http.Get(api.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("rejected specs left jobs behind: %+v", list)
	}

	// Lifecycle status codes.
	resp = postJob(t, api.URL, JobSpec{Name: "ok", Dataset: "synth", Clients: 2, Rounds: 1, Records: 4})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid create: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJob(t, api.URL, JobSpec{Name: "ok", Dataset: "synth", Clients: 2, Rounds: 1, Records: 4})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(api.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, api.URL+"/jobs/ok", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(api.URL + "/jobs/ok")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job still listed: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// sendHello dials the front door and writes one hand-made Hello; the caller
// reads (or ignores) what comes back and closes the connection.
func sendHello(t *testing.T, front *flnet.MemListener, job string, id int, caps uint32) net.Conn {
	t.Helper()
	conn, err := front.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	err = flnet.WriteMessage(conn, &flnet.Message{
		Kind: flnet.KindHello, ClientID: id, Version: flnet.ProtocolVersion, LastRound: -1, Job: job, WireCaps: caps,
	})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// TestFrontDoorRateLimitAndRouting covers the shared accept path:
// per-client token buckets shed hello storms with drain notices, unknown
// jobs are refused with typed errors, and a job-unaware client is routed
// iff exactly one job exists.
func TestFrontDoorRateLimitAndRouting(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(16)
	svc := newTestService(t, t.TempDir(), mem)

	hello := func(job string, id int) *flnet.Message {
		t.Helper()
		conn := sendHello(t, mem, job, id, 0)
		defer conn.Close()
		reply, err := flnet.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// The whole burst is admitted (as unknown-job errors); the storm past it
	// is rate limited. The bucket refills at clientRate, so on a host that
	// takes a tenth of a second per hello the drain may come a few hellos
	// after the burst — but it must come.
	for i := 0; i < clientBurst; i++ {
		if reply := hello("ghost", 7); reply.Kind != flnet.KindError {
			t.Fatalf("hello %d: got %v frame, want error (unknown job)", i, reply.Kind)
		}
	}
	limited := false
	for i := 0; i <= clientBurst && !limited; i++ {
		reply := hello("ghost", 7)
		if limited = reply.Kind == flnet.KindDrain; limited && reply.RetryAfterMs <= 0 {
			t.Fatalf("rate-limit drain carries no RetryAfterMs")
		}
	}
	if !limited {
		t.Fatalf("%d hellos past the burst of %d, none rate limited", clientBurst+1, clientBurst)
	}
	// A different client id has its own bucket.
	if reply := hello("ghost", 8); reply.Kind != flnet.KindError {
		t.Fatalf("other client: got %v frame, want error", reply.Kind)
	}

	// With no jobs, an empty hello is refused; with exactly one job it is
	// routed (back-compat for job-unaware clients).
	if reply := hello("", 1); reply.Kind != flnet.KindError {
		t.Fatalf("empty hello with no jobs: got %v, want error", reply.Kind)
	}
	spec := JobSpec{Name: "solo", Dataset: "synth", Clients: 2, Rounds: 1, Seed: 3, Records: 4}
	if _, err := svc.CreateJob(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	unnamed := spec
	unnamed.Name = "" // clients send no job; the front door routes to the sole job
	stats := runFleet(ctx, unnamed, mem.Dial)
	if got := stats.Done.Load(); got != int64(spec.Clients) {
		t.Fatalf("job-unaware fleet: %d/%d finished", got, spec.Clients)
	}
	waitState(t, svc, "solo", JobDone, 30*time.Second)
}

// TestFrontDoorShedsOnFullBacklog covers the per-job backpressure boundary:
// a job whose server has stopped accepting fills its backlog, the next
// routed hello is shed with a drain notice (not queued, not dropped), and
// the shared accept path keeps routing other jobs' clients meanwhile.
func TestFrontDoorShedsOnFullBacklog(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(64)
	svc := newTestService(t, t.TempDir(), mem)
	stuck := JobSpec{Name: "stuck", Dataset: "synth", Clients: 2 * jobBacklog, Rounds: 1, Seed: 1, Records: 4}
	quick := JobSpec{Name: "quick", Dataset: "synth", Clients: 1, Rounds: 1, Seed: 2, Records: 4}
	for _, spec := range []JobSpec{stuck, quick} {
		if _, err := svc.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
	}

	// Registration is synchronous until the cohort forms, and a pipe write
	// blocks until it is read: a registrant that asks for the codec ack and
	// reads one byte of it pins the job's accept loop inside that write.
	staller := sendHello(t, mem, stuck.Name, 0, flnet.ClientCaps)
	defer staller.Close()
	if _, err := staller.Read(make([]byte, 1)); err != nil {
		t.Fatalf("stalling registrant saw no ack: %v", err)
	}

	routed, shed := telRouted.Value(), telRouteShed.Value()
	for id := 1; id <= jobBacklog; id++ {
		defer sendHello(t, mem, stuck.Name, id, 0).Close()
	}
	for deadline := time.Now().Add(10 * time.Second); telRouted.Value() < routed+jobBacklog; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d hellos queued in the job's backlog", telRouted.Value()-routed, jobBacklog)
		}
		time.Sleep(time.Millisecond)
	}

	overflow := sendHello(t, mem, stuck.Name, jobBacklog+1, 0)
	defer overflow.Close()
	reply, err := flnet.ReadMessage(overflow)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != flnet.KindDrain || reply.RetryAfterMs <= 0 {
		t.Fatalf("hello past a full backlog got %v (retry after %d ms), want a drain notice with a back-off", reply.Kind, reply.RetryAfterMs)
	}
	if got := telRouteShed.Value() - shed; got != 1 {
		t.Fatalf("dinar_service_route_shed_total moved by %d, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if stats := runFleet(ctx, quick, mem.Dial); stats.Done.Load() != 1 {
		t.Fatalf("second job's client did not finish behind the first job's full backlog")
	}
	waitState(t, svc, quick.Name, JobDone, 10*time.Second)
}

// TestPauseResume exercises the lifecycle detour: a paused job parks
// with its checkpoints, refuses clients, and resumes bit-identically.
func TestPauseResume(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(16)
	svc := newTestService(t, t.TempDir(), mem)
	spec := JobSpec{Name: "parky", Dataset: "synth", Clients: 3, Rounds: 6, Seed: 9, Records: 8}
	if _, err := svc.CreateJob(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The fleet keeps redialing across the pause window; drain notices
		// and unknown-state rejections both end sessions without progress,
		// so give it a generous retry budget.
		fleet := &fleetsim.Fleet{
			N: spec.Clients, Dim: jobDim(spec), Seed: spec.Seed, Job: spec.Name,
			Dial: mem.Dial, MaxRetries: 200,
			// Think time keeps a round slower than the 5 ms status poll
			// below, so the pause lands before the last round does.
			DelaySeed: 1, MaxDelay: 40 * time.Millisecond,
		}
		stats := fleet.Run(ctx)
		if got := stats.Done.Load(); got != int64(spec.Clients) {
			t.Errorf("fleet across pause: %d/%d finished (gaveUp=%d)", got, spec.Clients, stats.GaveUp.Load())
		}
	}()

	deadline := time.Now().Add(time.Minute)
	for {
		st, err := svc.JobStatus(spec.Name)
		if err == nil && st.Health != nil && st.Health.CheckpointRound >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed round 1")
		}
		time.Sleep(5 * time.Millisecond)
	}
	pauseCtx, pauseCancel := context.WithTimeout(context.Background(), time.Minute)
	if err := svc.PauseJob(pauseCtx, spec.Name); err != nil {
		t.Fatalf("pause: %v", err)
	}
	pauseCancel()
	waitState(t, svc, spec.Name, JobPaused, 10*time.Second)
	if err := svc.ResumeJob(spec.Name); err != nil {
		t.Fatalf("resume: %v", err)
	}
	st := waitState(t, svc, spec.Name, JobRunning, 10*time.Second)
	if st.StartRound < 1 {
		t.Errorf("resume re-adopted from round %d, want >= 1", st.StartRound)
	}
	wg.Wait()
	waitState(t, svc, spec.Name, JobDone, 30*time.Second)
	j, err := svc.job(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceFinal(t, spec); !equalVec(j.FinalState(), want) {
		t.Error("pause/resume final state differs from uninterrupted run")
	}
}

// finishJobs creates each spec's job and drives its fleet to completion.
func finishJobs(t *testing.T, svc *Service, mem *flnet.MemListener, specs ...JobSpec) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, spec := range specs {
		if _, err := svc.CreateJob(spec); err != nil {
			t.Fatal(err)
		}
		stats := runFleet(ctx, spec, mem.Dial)
		if got := stats.Done.Load(); got != int64(spec.Clients) {
			t.Fatalf("job %s: %d/%d clients finished", spec.Name, got, spec.Clients)
		}
		waitState(t, svc, spec.Name, JobDone, 30*time.Second)
	}
}

// TestMetricsFederationSeriesCarryJobLabel: a federation's series exist only
// in its job's registry. With no job and with two finished ones, every
// dinar_fl_* / dinar_flnet_* sample on the service's /metrics names its job;
// the client-side series, which belong to the process, are the exception.
func TestMetricsFederationSeriesCarryJobLabel(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	mem := flnet.ListenMem(16)
	svc := newTestService(t, t.TempDir(), mem)

	check := func(when string, wantLabeled bool) {
		t.Helper()
		var sb strings.Builder
		if err := svc.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		labeled, processScoped := 0, 0
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case !strings.HasPrefix(line, "dinar_fl_") && !strings.HasPrefix(line, "dinar_flnet_"):
			case strings.HasPrefix(line, "dinar_fl_client_") || strings.HasPrefix(line, "dinar_flnet_client_"):
				processScoped++
			case strings.Contains(line, `job="`):
				labeled++
			default:
				t.Errorf("%s: federation sample without a job label: %s", when, line)
			}
		}
		if processScoped == 0 {
			t.Errorf("%s: the process-scoped client series are missing", when)
		}
		if (labeled > 0) != wantLabeled {
			t.Errorf("%s: %d job-labeled federation samples", when, labeled)
		}
	}

	check("zero jobs", false)
	finishJobs(t, svc, mem,
		JobSpec{Name: "one", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 5, Records: 4},
		JobSpec{Name: "two", Dataset: "synth", Clients: 3, Rounds: 2, Seed: 6, Records: 4})
	check("two finished jobs", true)
}

// TestDeleteJobSparesNeighbourChain: job names may contain '.' and '-', so
// one job's checkpoint path can be a prefix of another's. Deleting "a"
// removes a.ckpt and its generations and no file of "a.ckpt-b".
func TestDeleteJobSparesNeighbourChain(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	stateDir := t.TempDir()
	mem := flnet.ListenMem(16)
	svc := newTestService(t, stateDir, mem)
	finishJobs(t, svc, mem,
		JobSpec{Name: "a", Dataset: "synth", Clients: 2, Rounds: 3, Seed: 7, Records: 4},
		JobSpec{Name: "a.ckpt-b", Dataset: "synth", Clients: 2, Rounds: 3, Seed: 8, Records: 4})

	chain := func(job string) []string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(stateDir, job+".ckpt*"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	neighbour := chain("a.ckpt-b")
	if len(neighbour) < 2 || len(chain("a")) <= len(neighbour) {
		t.Fatalf("want two multi-generation chains, got a.ckpt* = %v", chain("a"))
	}
	if err := svc.DeleteJob("a"); err != nil {
		t.Fatal(err)
	}
	if left := chain("a"); !slices.Equal(left, neighbour) {
		t.Errorf("after deleting job a, a.ckpt* = %v, want exactly the neighbour's chain %v", left, neighbour)
	}
}
