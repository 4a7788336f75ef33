package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"

	"repro/internal/flnet"
	"repro/internal/telemetry"
)

// Builder turns a job spec into its federation's server configuration:
// the bound defense, the initial global state and every setting the spec
// names. The control plane stays ignorant of datasets and model
// architectures — the binary wires in dinar.JobBuilder, the construction a
// standalone server uses — and adds only what a job owns: its registry,
// checkpoint path and log sink. The builder may normalize the spec in place
// (fill defaulted fields such as the dataset).
type Builder func(spec *JobSpec) (flnet.ServerConfig, error)

// JobState is one stop in a job's lifecycle:
// created → running → draining → done, with pause/resume as a detour
// (running → draining → paused → running) and failed as the terminal
// state of a job whose federation returned an error.
type JobState string

const (
	JobCreated  JobState = "created"
	JobRunning  JobState = "running"
	JobDraining JobState = "draining"
	JobPaused   JobState = "paused"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
)

// JobStatus is the admin API's view of one job.
type JobStatus struct {
	Name  string   `json:"name"`
	State JobState `json:"state"`
	// Detail carries the failure message for a failed job and "drained"
	// for a job stopped early by an operator drain.
	Detail string `json:"detail,omitempty"`
	// StartRound is the round the current (or last) run resumed from —
	// nonzero after a checkpoint re-adoption.
	StartRound int `json:"start_round"`
	// Health is the live federation's /healthz snapshot; nil when the
	// job has no running server.
	Health *telemetry.Health `json:"health,omitempty"`
	Spec   JobSpec           `json:"spec"`
}

// Job supervises one federation: the flnet server the front door admits
// clients to, its job-labeled telemetry registry, and the lifecycle state
// machine. All mutable fields are guarded by mu; the run goroutine owns
// srv.Run and reports back through runExit.
type Job struct {
	spec     JobSpec
	reg      *telemetry.Registry
	builder  Builder
	ckptPath string
	logf     func(format string, args ...any)
	// onChange is called (without mu held) after every state
	// transition so the service can persist the manifest.
	onChange func()

	mu     sync.Mutex
	state  JobState
	detail string
	srv    *flnet.Server
	cancel context.CancelFunc
	done   chan struct{} // closed when the run goroutine exits; nil when idle
	final  []float64
	// pausing marks an in-flight drain as a pause (ErrDraining lands in
	// JobPaused, resumable); suspending marks it as a process-level
	// shutdown (the state stays JobRunning so a restarted service
	// re-adopts the job).
	pausing    bool
	suspending bool
}

func newJob(spec JobSpec, builder Builder, stateDir string, logf func(string, ...any), onChange func()) *Job {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if onChange == nil {
		onChange = func() {}
	}
	return &Job{
		spec:     spec,
		reg:      telemetry.NewLabeledRegistry("job", spec.Name),
		builder:  builder,
		ckptPath: filepath.Join(stateDir, spec.Name+".ckpt"),
		logf:     logf,
		onChange: onChange,
		state:    JobCreated,
	}
}

// Name returns the job's routing key.
func (j *Job) Name() string { return j.spec.Name }

// Registry returns the job's labeled telemetry registry (for merged
// exposition).
func (j *Job) Registry() *telemetry.Registry { return j.reg }

// start builds the federation and launches the run goroutine. Legal from
// created (first start) and paused (resume: the flnet server is rebuilt
// and re-adopts the checkpoint chain; the labeled registry is reused, so
// counters continue rather than reset). Construction happens entirely
// before the state flips to running — a failed build leaves the job
// exactly as it was, never half-constructed.
func (j *Job) start() error {
	j.mu.Lock()
	if j.state != JobCreated && j.state != JobPaused {
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("service: job %q is %s, not startable", j.spec.Name, state)
	}
	j.mu.Unlock()

	// Build outside the lock: model construction can be slow and touches
	// nothing of the job's mutable state.
	spec := j.spec
	cfg, err := j.builder(&spec)
	if err != nil {
		return fmt.Errorf("service: job %q: %w", j.spec.Name, err)
	}
	// No listener and no address: the server opens no socket, and the
	// front door hands it every client through Admit.
	name, logf := spec.Name, j.logf
	cfg.Listener, cfg.Addr, cfg.Registry, cfg.CheckpointPath = nil, "", j.reg, j.ckptPath
	cfg.Logf = func(format string, args ...any) {
		logf("job %s: "+format, append([]any{name}, args...)...)
	}
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("service: job %q: %w", j.spec.Name, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})

	j.mu.Lock()
	if j.state != JobCreated && j.state != JobPaused {
		// Lost a race with delete/close between the check and the build.
		state := j.state
		j.mu.Unlock()
		cancel()
		return fmt.Errorf("service: job %q is %s, not startable", j.spec.Name, state)
	}
	j.spec = spec // builder-normalized
	j.state = JobRunning
	j.detail = ""
	j.srv = srv
	j.cancel = cancel
	j.done = done
	j.pausing = false
	j.suspending = false
	j.mu.Unlock()

	go j.run(ctx, srv, done)
	j.onChange()
	return nil
}

// run is the job's supervision goroutine: it owns srv.Run and translates
// its outcome into the lifecycle state. Run joins every registration and
// per-connection goroutine the server holds before it returns, so a waiter
// on done observes a LeakGuard-clean job.
func (j *Job) run(ctx context.Context, srv *flnet.Server, done chan struct{}) {
	final, err := srv.Run(ctx)

	j.mu.Lock()
	j.final = final
	switch {
	case err == nil:
		j.state = JobDone
		j.detail = ""
	case errors.Is(err, flnet.ErrDraining):
		switch {
		case j.pausing:
			j.state = JobPaused
			j.detail = ""
		case j.suspending:
			// Process-level shutdown: keep JobRunning so the manifest
			// records a job the next process generation must re-adopt.
			j.state = JobRunning
			j.detail = ""
		default:
			j.state = JobDone
			j.detail = "drained"
		}
	default:
		j.state = JobFailed
		j.detail = err.Error()
	}
	j.srv = nil
	j.cancel = nil
	j.mu.Unlock()

	close(done)
	j.onChange()
}

// admit hands one demultiplexed client, its Hello already read, to the
// job's server (flnet.Server.Admit: non-blocking, and on error conn stays
// the caller's).
func (j *Job) admit(conn net.Conn, hello *flnet.Message) error {
	j.mu.Lock()
	srv, state := j.srv, j.state
	j.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("service: job %q is %s, not accepting clients", j.spec.Name, state)
	}
	return srv.Admit(conn, hello)
}

// drain stops the federation gracefully: the in-flight round finishes
// (or ctx expires), the final state is checkpointed, clients get drain
// notices. pause=true parks the job as paused (resumable); suspend=true
// is the process-level variant that leaves the state running for the
// manifest. Returns once the run goroutine has exited.
func (j *Job) drain(ctx context.Context, pause, suspend bool) error {
	j.mu.Lock()
	// A suspend drain leaves the job running with no server until the
	// service exits: there is nothing left to drain.
	if j.state != JobRunning && j.state != JobDraining || j.srv == nil {
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("service: job %q is %s, not drainable", j.spec.Name, state)
	}
	srv := j.srv
	done := j.done
	j.state = JobDraining
	j.pausing = j.pausing || pause
	j.suspending = j.suspending || suspend
	j.mu.Unlock()
	j.onChange()

	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, flnet.ErrDraining) {
		return fmt.Errorf("service: job %q: drain: %w", j.spec.Name, err)
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop hard-cancels the federation (no graceful round completion) and
// waits for the run goroutine. Used by delete and service Close; safe in
// any state.
func (j *Job) stop() {
	j.mu.Lock()
	cancel := j.cancel
	done := j.done
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

// status snapshots the job for the admin API.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		Name:   j.spec.Name,
		State:  j.state,
		Detail: j.detail,
		Spec:   j.spec,
	}
	srv := j.srv
	j.mu.Unlock()
	if srv != nil {
		h := srv.Health()
		st.Health = &h
		st.StartRound = srv.StartRound()
	}
	return st
}

// currentState returns the job's lifecycle state.
func (j *Job) currentState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// FinalState returns the job's last known global model (nil until the
// first run exits).
func (j *Job) FinalState() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.final
}
