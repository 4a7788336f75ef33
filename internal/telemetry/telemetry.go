// Package telemetry is the runtime observability layer of the DINAR
// middleware: metrics registries whose instruments (atomic counters,
// gauges, fixed-bucket histograms) are allocation-free on the hot path, a
// serialized structured event log that replaces ad-hoc Logf fan-in, a
// /healthz snapshot type, and an admin HTTP server exposing it all
// (Prometheus text format on /metrics, JSON on /healthz, net/http/pprof
// under /debug/).
//
// Instruments are registered once — a federation's when its server is
// built, in the registry that server was handed; the per-process ones at
// package init, in Default() — and registration may allocate;
// Observe/Add/Set/Inc never do, so the training hot path — which
// the repository guards at 0 allocs/op in steady state — can be
// instrumented without losing that property. Every instrument is safe for
// concurrent use.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is a programming error but is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to v if v exceeds the current value — a
// monotone high-water mark (peak memory, max queue depth).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: cumulative counts per upper
// bound plus an implicit +Inf bucket, a float sum, and a total count.
// Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// DurationBuckets are the default bounds (in seconds) for phase/latency
// histograms: 100µs up to 60s.
var DurationBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60,
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// kind discriminates registered instruments.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// entry is one registered instrument.
type entry struct {
	name string
	help string
	k    kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments and renders them in Prometheus text
// format. The zero value is unusable; use NewRegistry or the package-level
// Default registry.
//
// A registry may carry one constant label pair (NewLabeledRegistry) that
// is rendered on every sample it exposes — the mechanism behind per-job
// metric isolation in service mode: each federation job registers its
// instruments into its own `job`-labeled registry, and the admin endpoint
// merges all of them with WritePrometheusMerged so two jobs' counters
// never collapse into one indistinguishable process-wide total.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry

	// scalarSuffix is `{key="value"}` appended to counter/gauge/sum/count
	// sample names; bucketPrefix is `key="value",` merged ahead of the
	// le label on histogram buckets. Both empty for unlabeled registries.
	scalarSuffix string
	bucketPrefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// NewLabeledRegistry returns an empty registry whose every exposed sample
// carries the constant label key="value" (e.g. job="mnist-a"). The label
// is rendered at exposition time only; instruments stay allocation-free.
func NewLabeledRegistry(key, value string) *Registry {
	r := NewRegistry()
	r.scalarSuffix = fmt.Sprintf("{%s=%q}", key, value)
	r.bucketPrefix = fmt.Sprintf("%s=%q,", key, value)
	return r
}

// defaultRegistry holds the instruments that are per process by nature —
// wire I/O, the compute pool, the heap, the client side of the protocol,
// the service front door — registered by the package-level constructors
// below. A federation's own series never land here: every server counts
// into the registry it was handed, and whoever assembles an exposition
// merges that registry with this one.
var defaultRegistry = NewRegistry()

// Default returns the process-scoped registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", e.name))
	}
	r.entries[e.name] = e
}

// NewCounter registers a counter under name. Duplicate names panic
// (registration is init-time wiring, not a runtime path).
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, k: kindCounter, c: c})
	return c
}

// NewGauge registers a gauge under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&entry{name: name, help: help, k: kindGauge, g: g})
	return g
}

// NewHistogram registers a histogram with the given ascending bucket
// bounds (nil means DurationBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), buckets: make([]atomic.Int64, len(bounds)+1)}
	r.register(&entry{name: name, help: help, k: kindHistogram, h: h})
	return h
}

// Counter returns the counter registered under name, registering it first
// when absent. Unlike NewCounter, finding the name already registered is
// not an error — metric bundles built per registry (one per federation
// job) can be rebuilt over the same registry when a job restarts from its
// checkpoint, and the instrument keeps accumulating where it left off.
// A name already registered as a different instrument kind still panics.
func (r *Registry) Counter(name, help string) *Counter {
	if e := r.lookup(name, kindCounter); e != nil {
		return e.c
	}
	return r.NewCounter(name, help)
}

// Gauge returns the gauge registered under name, registering it first when
// absent (see Counter for the reuse contract).
func (r *Registry) Gauge(name, help string) *Gauge {
	if e := r.lookup(name, kindGauge); e != nil {
		return e.g
	}
	return r.NewGauge(name, help)
}

// Histogram returns the histogram registered under name, registering it
// first when absent (see Counter for the reuse contract). The bounds of an
// existing histogram are kept; the argument only shapes a fresh one.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.h
	}
	return r.NewHistogram(name, help, bounds)
}

// lookup returns the entry under name after checking its kind, or nil when
// the name is unregistered.
func (r *Registry) lookup(name string, k kind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil
	}
	if e.k != k {
		panic(fmt.Sprintf("telemetry: metric %q re-requested as a different instrument kind", name))
	}
	return e
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewHistogram registers a histogram in the Default registry (nil bounds
// mean DurationBuckets).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// sample couples one instrument with the label rendering of the registry
// that owns it, so merged exposition can interleave samples from several
// registries under one HELP/TYPE header.
type sample struct {
	e            *entry
	scalarSuffix string
	bucketPrefix string
}

// snapshot returns the registry's entries sorted by name, each tagged with
// the registry's label rendering.
func (r *Registry) snapshot() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]sample, 0, len(names))
	for _, name := range names {
		out = append(out, sample{e: r.entries[name], scalarSuffix: r.scalarSuffix, bucketPrefix: r.bucketPrefix})
	}
	return out
}

// writeSample renders one instrument's sample lines (no HELP/TYPE header).
func writeSample(w io.Writer, s sample) error {
	e := s.e
	switch e.k {
	case kindCounter:
		if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, s.scalarSuffix, e.c.Value()); err != nil {
			return err
		}
	case kindGauge:
		if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, s.scalarSuffix, e.g.Value()); err != nil {
			return err
		}
	case kindHistogram:
		var cum int64
		for i, b := range e.h.bounds {
			cum += e.h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", e.name, s.bucketPrefix, formatBound(b), cum); err != nil {
				return err
			}
		}
		cum += e.h.buckets[len(e.h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", e.name, s.bucketPrefix, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			e.name, s.scalarSuffix, strconv.FormatFloat(e.h.Sum(), 'g', -1, 64),
			e.name, s.scalarSuffix, e.h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// typeName renders the Prometheus TYPE keyword for an instrument kind.
func (k kind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format, sorted by metric name so output is deterministic. A
// labeled registry's samples carry its constant label.
func (r *Registry) WritePrometheus(w io.Writer) error { return WritePrometheusMerged(w, r) }

// WritePrometheusMerged renders the union of several registries as one
// valid Prometheus exposition: samples sharing a metric name are grouped
// under a single HELP/TYPE header (Prometheus rejects repeated headers),
// distinguished by each registry's constant label. This is how an admin
// port serves one /metrics page covering the process-scoped Default
// registry plus its server's registry (service mode: every job's labeled
// one). Registries listed earlier win HELP-text conflicts; two unlabeled
// registries sharing a name would emit duplicate series, so callers label
// all but one.
func WritePrometheusMerged(w io.Writer, regs ...*Registry) error {
	byName := make(map[string][]sample)
	names := make([]string, 0, 64)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, s := range r.snapshot() {
			if _, seen := byName[s.e.name]; !seen {
				names = append(names, s.e.name)
			}
			byName[s.e.name] = append(byName[s.e.name], s)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, group[0].e.help, name, group[0].e.k.typeName()); err != nil {
			return err
		}
		for _, s := range group {
			if err := writeSample(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus expects (shortest
// round-trip float).
func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
