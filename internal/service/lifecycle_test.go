package service

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flnet"
	"repro/internal/leakcheck"
)

// readManifest decodes the manifest on disk into job name → recorded state.
func readManifest(t *testing.T, stateDir string) map[string]JobState {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(stateDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc manifestDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	states := make(map[string]JobState, len(doc.Jobs))
	for _, e := range doc.Jobs {
		states[e.Spec.Name] = e.State
	}
	return states
}

// TestAdoptionListsEveryJob: a new process generation registers every
// manifest entry before it starts any job, so the manifest that each start
// writes still lists the jobs not yet adopted, and a crash mid-adoption
// loses none of them. A manifest that records a job as running, as one
// written before the suspended state existed does, re-adopts it like one
// that says suspended.
func TestAdoptionListsEveryJob(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	stateDir := t.TempDir()
	entries := []manifestJob{
		{Spec: JobSpec{Name: "first", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 1, Records: 4}, State: JobRunning},
		{Spec: JobSpec{Name: "second", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 2, Records: 4}, State: JobSuspended},
		{Spec: JobSpec{Name: "parked", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 3, Records: 4}, State: JobPaused},
		{Spec: JobSpec{Name: "third", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 4, Records: 4}, State: JobDraining},
	}
	data, err := json.Marshal(manifestDoc{Jobs: entries})
	if err != nil {
		t.Fatal(err)
	}
	write := func(f *os.File) error { _, err := f.Write(data); return err }
	if err := checkpoint.WriteDurable(filepath.Join(stateDir, "manifest.json"), write); err != nil {
		t.Fatal(err)
	}

	base := testBuilder()
	var built []string
	builder := func(spec *JobSpec) (flnet.ServerConfig, error) {
		built = append(built, spec.Name)
		listed := readManifest(t, stateDir)
		for _, e := range entries {
			if _, ok := listed[e.Spec.Name]; !ok {
				t.Errorf("while building job %q, manifest.json lists %v: job %q is missing", spec.Name, listed, e.Spec.Name)
			}
		}
		return base(spec)
	}
	svc, err := New(Options{Addr: "127.0.0.1:0", StateDir: stateDir, Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	if want := []string{"first", "second", "third"}; !slices.Equal(built, want) {
		t.Errorf("built %v, want %v", built, want)
	}
	for _, e := range entries {
		want := JobRunning
		if e.State == JobPaused {
			want = JobPaused
		}
		if st, err := svc.JobStatus(e.Spec.Name); err != nil || st.State != want {
			t.Errorf("job %q recorded %s: re-registered as %+v (%v), want %s", e.Spec.Name, e.State, st.State, err, want)
		}
	}
}

// TestManifestCurrentWhenDrainReturns: a job's last transition writes the
// manifest before its run goroutine signals the exit, so manifest.json on
// disk already reads done when DrainJob returns.
func TestManifestCurrentWhenDrainReturns(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	stateDir := t.TempDir()
	svc := newTestService(t, stateDir)
	spec := JobSpec{Name: "brief", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 5, Records: 4}
	if _, err := svc.CreateJob(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.DrainJob(ctx, spec.Name); err != nil {
		t.Fatal(err)
	}
	if got := readManifest(t, stateDir)[spec.Name]; got != JobDone {
		t.Errorf("manifest.json records %q right after DrainJob returned, want %s", got, JobDone)
	}
}

// TestFailedCreateLeavesNoManifestEntry: while a create is building its job,
// another job's transition writes the manifest with the new job in it. When
// the build then fails, the manifest forgets the job again, so the next
// process generation does not re-adopt a job its admin API refused.
func TestFailedCreateLeavesNoManifestEntry(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	stateDir := t.TempDir()
	base := testBuilder()
	building, release := make(chan struct{}), make(chan struct{})
	builder := func(spec *JobSpec) (flnet.ServerConfig, error) {
		if spec.Name != "doomed" {
			return base(spec)
		}
		close(building)
		<-release
		return flnet.ServerConfig{}, errors.New("build failed")
	}
	svc, err := New(Options{Addr: "127.0.0.1:0", StateDir: stateDir, Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	other := JobSpec{Name: "other", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 7, Records: 4}
	if _, err := svc.CreateJob(other); err != nil {
		t.Fatal(err)
	}
	created := make(chan error, 1)
	go func() {
		_, err := svc.CreateJob(JobSpec{Name: "doomed", Dataset: "synth", Clients: 2, Rounds: 2, Seed: 8, Records: 4})
		created <- err
	}()
	<-building
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.DrainJob(ctx, other.Name); err != nil {
		t.Fatal(err)
	}
	if _, ok := readManifest(t, stateDir)["doomed"]; !ok {
		t.Fatal("the drain's manifest write does not list the job being built")
	}
	close(release)
	if err := <-created; err == nil {
		t.Fatal("create with a failing build succeeded")
	}
	if listed := readManifest(t, stateDir); len(listed) != 1 || listed[other.Name] != JobDone {
		t.Errorf("manifest after the failed create lists %v, want only %s: %s", listed, other.Name, JobDone)
	}
}

// TestJobTransitionTable runs every admin operation against a job in every
// state and checks the outcome against the lifecycle's table: a legal
// operation leaves the job where the table says, a refused one names the
// state and leaves the job in it. Delete is legal from every state.
func TestJobTransitionTable(t *testing.T) {
	leakcheck.GuardTest(t, 10*time.Second)
	svc := newTestService(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// place registers a job in state. A running job has a live server that
	// waits for its cohort; the draining one is such a job whose state
	// reads draining, since what it allows is the job's to decide, not the
	// server's. Every other state has no server.
	place := func(t *testing.T, name string, state JobState) *Job {
		t.Helper()
		spec := JobSpec{Name: name, Dataset: "synth", Clients: 2, Rounds: 2, Seed: 6, Records: 4}
		j := newJob(spec, svc.opts.Builder, svc.opts.StateDir, svc.logf, svc.persistManifest)
		svc.mu.Lock()
		svc.jobs[name] = j
		svc.order = append(svc.order, name)
		svc.mu.Unlock()
		if state == JobRunning || state == JobDraining {
			if err := j.start(); err != nil {
				t.Fatal(err)
			}
		}
		j.mu.Lock()
		j.state = state
		j.mu.Unlock()
		return j
	}

	all := []JobState{JobCreated, JobRunning, JobDraining, JobPaused, JobSuspended, JobDone, JobFailed}
	live := []JobState{JobRunning, JobDraining}
	ops := []struct {
		name  string
		legal []JobState
		// after is the state a legal operation leaves the job in; "" keeps
		// the state it had.
		after   JobState
		refusal string
		do      func(j *Job) error
	}{
		{"create-resume", []JobState{JobCreated, JobPaused}, JobRunning, "startable",
			func(j *Job) error { return svc.ResumeJob(j.Name()) }},
		{"drain", live, JobDone, "drainable",
			func(j *Job) error { return svc.DrainJob(ctx, j.Name()) }},
		{"pause", live, JobPaused, "drainable",
			func(j *Job) error { return svc.PauseJob(ctx, j.Name()) }},
		{"admit", live, "", "accepting clients",
			func(j *Job) error {
				server, client := net.Pipe()
				defer client.Close()
				hello := &flnet.Message{Kind: flnet.KindHello, Version: flnet.ProtocolVersion, LastRound: -1, Job: j.Name()}
				err := j.admit(server, hello)
				if err != nil {
					server.Close() // refused: the conn is still ours
				}
				return err
			}},
		{"delete", all, "", "",
			func(j *Job) error { return svc.DeleteJob(j.Name()) }},
	}

	for _, op := range ops {
		for _, from := range all {
			t.Run(op.name+"/"+string(from), func(t *testing.T) {
				j := place(t, op.name+"-"+string(from), from)
				err := op.do(j)
				if !slices.Contains(op.legal, from) {
					want := "is " + string(from) + ", not " + op.refusal
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("got %v, want a refusal %q", err, want)
					}
					if got := j.currentState(); got != from {
						t.Fatalf("refused operation moved the job to %s", got)
					}
					return
				}
				if err != nil {
					t.Fatalf("legal operation failed: %v", err)
				}
				if op.name == "delete" {
					if _, err := svc.JobStatus(j.Name()); !errors.Is(err, ErrJobNotFound) {
						t.Fatalf("deleted job still registered: %v", err)
					}
					return
				}
				want := op.after
				if want == "" {
					want = from
				}
				if got := j.currentState(); got != want {
					t.Fatalf("job is %s, want %s", got, want)
				}
			})
		}
	}
}
