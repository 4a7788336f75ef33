package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flnet"
	"repro/internal/telemetry"
)

// Service-level metrics live in the process-global registry (they
// describe the shared front door, not any one job; job-scoped metrics
// carry the job label via each job's own registry).
var (
	telRouted = telemetry.NewCounter("dinar_service_routed_total",
		"client connections routed to a job by the service front door")
	telRouteRejected = telemetry.NewCounter("dinar_service_route_rejected_total",
		"client connections rejected at the front door (bad hello, unknown or stopped job)")
	telRouteShed = telemetry.NewCounter("dinar_service_route_shed_total",
		"client connections shed with a retry notice (job registration bound full, or job draining)")
	telRateLimited = telemetry.NewCounter("dinar_service_rate_limited_total",
		"client connections shed by the per-client hello rate limit")
	telJobs = telemetry.NewGauge("dinar_service_jobs",
		"jobs currently registered in the service control plane")
)

// ErrJobNotFound is returned for operations on a job name the registry
// does not hold.
var ErrJobNotFound = errors.New("service: job not found")

// ErrJobExists is returned by CreateJob for a duplicate job name.
var ErrJobExists = errors.New("service: job already exists")

// Front-door admission policy.
const (
	// clientRate is the sustained per-(job, client) hello admission rate
	// per second and clientBurst the burst allowance: reconnect storms from
	// one client are absorbed here, before they can occupy a job's
	// registration bound.
	clientRate  = 10
	clientBurst = 20
	// helloTimeout bounds how long the front door waits for a connection's
	// first frame before dropping it.
	helloTimeout = 5 * time.Second
	// retryAfter is the back-off suggested to shed clients.
	retryAfter = 500 * time.Millisecond
)

// Options configures a Service.
type Options struct {
	// Addr is the TCP address of the shared client-facing listener.
	Addr string
	// StateDir holds the service manifest and every job's checkpoint
	// chain; it is the unit of state a rolling restart re-adopts.
	StateDir string
	// Builder constructs each job's defense and initial model state.
	Builder Builder
	// Logf receives control-plane progress lines (optional).
	Logf func(format string, args ...any)
}

// Service is the multi-tenant control plane: a registry of named
// federation jobs behind one shared client listener and one admin API.
type Service struct {
	opts    Options
	ln      net.Listener
	logf    func(format string, args ...any)
	limiter *rateLimiter

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for stable listings and exposition
	closed bool

	// manifestMu is held across a whole manifest write, so writes land in
	// the order their snapshots were taken and markClosed can wait out the
	// one in flight: nothing touches the state dir after Close returns.
	manifestMu sync.Mutex

	acceptDone chan struct{}
	routeWG    sync.WaitGroup
}

// New starts a Service: it re-adopts every job recorded in the state
// directory's manifest (restarting federations that were running when the
// previous process generation exited — each resumes from its checkpoint
// chain), then begins accepting clients.
func New(opts Options) (*Service, error) {
	if opts.Builder == nil {
		return nil, errors.New("service: Options.Builder is required")
	}
	if opts.StateDir == "" {
		return nil, errors.New("service: Options.StateDir is required")
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	s := &Service{
		opts:       opts,
		ln:         ln,
		logf:       logf,
		limiter:    &rateLimiter{buckets: make(map[string]*bucket)},
		jobs:       make(map[string]*Job),
		acceptDone: make(chan struct{}),
	}
	if err := s.adoptManifest(); err != nil {
		// The accept loop never started; release its waiters before the
		// teardown path blocks on them.
		close(s.acceptDone)
		s.Close()
		return nil, err
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the shared client listener's address.
func (s *Service) Addr() net.Addr { return s.ln.Addr() }

// ---------------------------------------------------------------------------
// Manifest: the durable job registry a rolling restart re-adopts.

type manifestJob struct {
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
}

type manifestDoc struct {
	Jobs []manifestJob `json:"jobs"`
}

func (s *Service) manifestPath() string {
	return filepath.Join(s.opts.StateDir, "manifest.json")
}

// persistManifest writes the current job registry the way the jobs'
// checkpoint chains are written (checkpoint.WriteDurable: temp, fsync,
// rename, directory fsync), so a crash mid-write leaves the previous
// manifest intact and an acknowledged job outlives a power loss as surely
// as its chain does.
func (s *Service) persistManifest() {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	s.mu.Lock()
	doc := manifestDoc{Jobs: make([]manifestJob, 0, len(s.order))}
	for _, name := range s.order {
		j := s.jobs[name]
		doc.Jobs = append(doc.Jobs, manifestJob{Spec: j.spec, State: j.currentState()})
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		s.logf("service: manifest encode: %v", err)
		return
	}
	write := func(f *os.File) error { _, err := f.Write(data); return err }
	if err := checkpoint.WriteDurable(s.manifestPath(), write); err != nil {
		s.logf("service: manifest write: %v", err)
	}
}

// adoptManifest loads the manifest and rebuilds the registry: jobs that
// were running, mid-drain or suspended when the previous process exited are
// started again and resume from their checkpoint chains; paused and
// terminal jobs are re-registered in their recorded states.
func (s *Service) adoptManifest() error {
	data, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: manifest read: %w", err)
	}
	var doc manifestDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("service: manifest decode: %w", err)
	}
	// Every entry is registered before any job starts: a start writes the
	// manifest, which must not forget the jobs not yet adopted should the
	// process crash mid-adoption. A job to re-adopt stays created until then.
	var adopt []*Job
	for _, entry := range doc.Jobs {
		if err := entry.Spec.Validate(); err != nil {
			s.logf("service: manifest: skipping invalid job %q: %v", entry.Spec.Name, err)
			continue
		}
		j := newJob(entry.Spec, s.opts.Builder, s.opts.StateDir, s.logf, s.persistManifest)
		switch entry.State {
		case JobRunning, JobDraining, JobSuspended, JobCreated:
			adopt = append(adopt, j)
		case JobPaused, JobDone, JobFailed:
			j.state = entry.State
		default:
			s.logf("service: manifest: job %q has unknown state %q, parking as paused", j.Name(), entry.State)
			j.state = JobPaused
		}
		s.mu.Lock()
		s.jobs[j.Name()] = j
		s.order = append(s.order, j.Name())
		telJobs.Set(int64(len(s.jobs)))
		s.mu.Unlock()
	}
	for _, j := range adopt {
		if err := j.start(); err != nil {
			s.logf("service: re-adopt job %q: %v", j.Name(), err)
			j.mu.Lock()
			j.state = JobFailed
			j.detail = err.Error()
			j.mu.Unlock()
		} else {
			s.logf("service: re-adopted job %q from its checkpoint chain", j.Name())
		}
	}
	s.persistManifest()
	return nil
}

// ---------------------------------------------------------------------------
// Job registry operations (the admin API calls these).

// CreateJob validates the spec, constructs the federation, and registers
// and starts the job. The name is reserved before the (slow) build and
// released on failure, so a failed build never leaves a half-constructed
// job and concurrent creates of the same name cannot both win.
func (s *Service) CreateJob(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	j := newJob(spec, s.opts.Builder, s.opts.StateDir, s.logf, s.persistManifest)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, errors.New("service: closed")
	}
	if _, ok := s.jobs[spec.Name]; ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %q", ErrJobExists, spec.Name)
	}
	s.jobs[spec.Name] = j
	s.order = append(s.order, spec.Name)
	telJobs.Set(int64(len(s.jobs)))
	s.mu.Unlock()

	if err := j.start(); err != nil {
		s.unregister(spec.Name)
		return JobStatus{}, err
	}
	return j.status(), nil
}

// unregister removes a job from the registry and writes the manifest, which
// may list the job: another job's transition writes every registered job,
// this one too while a create is still building it. Its checkpoint files are
// untouched; DeleteJob removes those.
func (s *Service) unregister(name string) {
	s.mu.Lock()
	delete(s.jobs, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	telJobs.Set(int64(len(s.jobs)))
	s.mu.Unlock()
	s.persistManifest()
}

// job looks up a registered job.
func (s *Service) job(name string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, name)
	}
	return j, nil
}

// JobStatus returns one job's status.
func (s *Service) JobStatus(name string) (JobStatus, error) {
	j, err := s.job(name)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// ListJobs returns every job's status in creation order.
func (s *Service) ListJobs() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, name := range s.order {
		jobs = append(jobs, s.jobs[name])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// DrainJob gracefully stops a running job (terminal state "done").
func (s *Service) DrainJob(ctx context.Context, name string) error {
	return s.drainJob(ctx, name, JobDone)
}

// PauseJob drains a running job into the resumable paused state.
func (s *Service) PauseJob(ctx context.Context, name string) error {
	return s.drainJob(ctx, name, JobPaused)
}

// drainJob drains the named job into target. The job's own transitions
// write the manifest, the last one before the drain returns.
func (s *Service) drainJob(ctx context.Context, name string, target JobState) error {
	j, err := s.job(name)
	if err != nil {
		return err
	}
	return j.drain(ctx, target)
}

// ResumeJob restarts a paused job; it re-adopts its checkpoint chain and
// continues from the last completed round.
func (s *Service) ResumeJob(name string) error {
	j, err := s.job(name)
	if err != nil {
		return err
	}
	return j.start()
}

// DeleteJob stops a job (hard-cancelling any live federation), removes
// it from the registry, and deletes its checkpoint chain.
func (s *Service) DeleteJob(name string) error {
	j, err := s.job(name)
	if err != nil {
		return err
	}
	j.stop()
	s.unregister(name)
	// Every generation goes, so a recreated job starts fresh.
	if err := checkpoint.RemoveChain(j.ckptPath); err != nil {
		s.logf("service: delete job %q: %v", name, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Front door: demultiplexing the shared listener by Hello job name.

func (s *Service) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && !errors.Is(err, net.ErrClosed) {
				s.logf("service: accept: %v", err)
			}
			return
		}
		s.routeWG.Add(1)
		go s.route(conn)
	}
}

// reject answers a connection the service will not route and closes it.
func (s *Service) reject(conn net.Conn, msg *flnet.Message) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	flnet.WriteMessage(conn, msg) //nolint:errcheck // best-effort courtesy reply
	conn.Close()
}

// route reads one connection's Hello and admits the connection with it to
// the named job's server, which parses nothing again. Shedding decisions
// (rate limit, the job's registration bound full, a draining job) answer
// with a drain notice so well-behaved clients back off and redial instead
// of hammering.
func (s *Service) route(conn net.Conn) {
	defer s.routeWG.Done()
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck
	hello, err := flnet.ReadHello(conn)
	if err != nil {
		telRouteRejected.Inc()
		s.reject(conn, &flnet.Message{Kind: flnet.KindError, Err: "service: expected hello"})
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck

	name := hello.Job
	if name == "" {
		// Back-compat: a job-unaware client is routed iff exactly one job
		// is registered, so single-tenant deployments keep working.
		s.mu.Lock()
		if len(s.order) == 1 {
			name = s.order[0]
		}
		s.mu.Unlock()
		if name == "" {
			telRouteRejected.Inc()
			s.reject(conn, &flnet.Message{Kind: flnet.KindError, Err: "service: hello names no job"})
			return
		}
	}

	if !s.limiter.allow(name+"/"+strconv.Itoa(hello.ClientID), time.Now()) {
		telRateLimited.Inc()
		s.reject(conn, &flnet.Message{Kind: flnet.KindDrain, RetryAfterMs: int(retryAfter / time.Millisecond)})
		return
	}

	j, err := s.job(name)
	if err != nil {
		telRouteRejected.Inc()
		s.reject(conn, &flnet.Message{Kind: flnet.KindError, Err: "service: unknown job " + name})
		return
	}
	err = j.admit(conn, hello)
	switch {
	case err == nil:
		telRouted.Inc()
	case errors.Is(err, flnet.ErrRegistrationFull), errors.Is(err, flnet.ErrDraining):
		telRouteShed.Inc()
		s.reject(conn, &flnet.Message{Kind: flnet.KindDrain, RetryAfterMs: int(retryAfter / time.Millisecond)})
	default:
		telRouteRejected.Inc()
		s.reject(conn, &flnet.Message{Kind: flnet.KindError, Err: "service: job " + name + " not accepting clients"})
	}
}

// ---------------------------------------------------------------------------
// Telemetry and lifecycle.

// WriteMetrics writes the merged Prometheus exposition: the process
// registry (service + wire + client counters) plus every job's labeled
// registry, grouped per metric name.
func (s *Service) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	regs := make([]*telemetry.Registry, 0, len(s.order)+1)
	regs = append(regs, telemetry.Default())
	for _, name := range s.order {
		regs = append(regs, s.jobs[name].Registry())
	}
	s.mu.Unlock()
	return telemetry.WritePrometheusMerged(w, regs...)
}

// Health summarizes the control plane for /healthz: Status is "service",
// NumClients counts registered jobs, RegisteredClients counts jobs whose
// federations are live. Per-job detail lives under /jobs.
func (s *Service) Health() telemetry.Health {
	statuses := s.ListJobs()
	live := 0
	for _, st := range statuses {
		if st.State == JobRunning || st.State == JobDraining {
			live++
		}
	}
	return telemetry.Health{
		Status:            "service",
		NumClients:        len(statuses),
		RegisteredClients: live,
	}
}

// Shutdown is the rolling-restart exit: every running job is drained
// concurrently (finishing its in-flight round and checkpointing) into the
// suspended state, which the manifest records for the next process
// generation to re-adopt, and the shared listener closes. Blocks until every
// route goroutine and job supervisor has exited.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, name := range s.order {
		jobs = append(jobs, s.jobs[name])
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs))
	for _, j := range jobs {
		if j.currentState() != JobRunning && j.currentState() != JobDraining {
			continue
		}
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			if err := j.drain(ctx, JobSuspended); err != nil {
				errCh <- err
			}
		}(j)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	s.markClosed()
	s.ln.Close()
	<-s.acceptDone
	s.routeWG.Wait()
	// Anything still alive (a drain that timed out) is cut hard so the
	// process can exit goroutine-clean.
	for _, j := range jobs {
		j.stop()
	}
	return errors.Join(errs...)
}

// Close stops everything immediately: the shared listener, every route
// goroutine, and every job (hard cancel, no graceful round completion).
func (s *Service) Close() error {
	s.markClosed()
	err := s.ln.Close()
	<-s.acceptDone
	s.routeWG.Wait()
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.stop()
	}
	return err
}

func (s *Service) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.manifestMu.Lock() // a write that passed the closed check finishes first
	s.manifestMu.Unlock()
}

// ---------------------------------------------------------------------------
// Per-client admission rate limiting.

// rateLimiter is a token-bucket table keyed by job/clientID. The table
// is bounded: at maxBuckets the stalest half is evicted, trading
// momentary over-admission for a hard memory ceiling under client-ID
// churn.
type rateLimiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

const maxBuckets = 8192

func (l *rateLimiter) allow(key string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.evictStalest(now)
		}
		b = &bucket{tokens: clientBurst, last: now}
		l.buckets[key] = b
	}
	b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*clientRate, clientBurst)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStalest drops the half of the buckets with the oldest activity.
// Called with mu held.
func (l *rateLimiter) evictStalest(now time.Time) {
	type aged struct {
		key  string
		last time.Time
	}
	all := make([]aged, 0, len(l.buckets))
	for k, b := range l.buckets {
		all = append(all, aged{k, b.last})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].last.Before(all[j].last) })
	for _, a := range all[:len(all)/2] {
		delete(l.buckets, a.key)
	}
}
