package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines (run
// under -race via `make telemetry`) and checks the total.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_counter_total", "t")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestGaugeConcurrent checks Add pairs cancel and SetMax keeps the maximum
// under contention.
func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_gauge", "t")
	hw := r.NewGauge("test_highwater", "t")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for id := 0; id < goroutines; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				g.Add(1)
				g.Add(-1)
				hw.SetMax(int64(id*perG + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d after balanced Adds, want 0", got)
	}
	if want := int64((goroutines-1)*perG + perG - 1); hw.Value() != want {
		t.Fatalf("high-water = %d, want %d", hw.Value(), want)
	}
}

// TestHistogramConcurrent checks bucket placement, count, and the
// CAS-accumulated sum under contention.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_hist_seconds", "t", []float64{1, 10})
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.5) // le=1 bucket
				h.Observe(5)   // le=10 bucket
				h.Observe(50)  // +Inf bucket
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(3*goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 55.5*goroutines*perG; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if err := WritePrometheusMerged(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`test_hist_seconds_bucket{le="1"} 4000`,
		`test_hist_seconds_bucket{le="10"} 8000`,
		`test_hist_seconds_bucket{le="+Inf"} 12000`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestHotPathAllocFree guards the tentpole property: recording telemetry
// from the training hot path must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_counter_total", "t")
	g := r.NewGauge("alloc_gauge", "t")
	h := r.NewHistogram("alloc_hist_seconds", "t", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		g.Add(-1)
		g.SetMax(99)
		h.Observe(0.0042)
	}); n != 0 {
		t.Fatalf("instrument hot path allocates %v allocs/op, want 0", n)
	}
}

// TestDuplicateRegistrationPanics: duplicate metric names are wiring bugs.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "t")
}

// TestWritePrometheusGolden pins the full exposition format on a fresh
// registry: HELP/TYPE lines, name-sorted order, cumulative buckets, sum
// and count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("z_requests_total", "requests served")
	g := r.NewGauge("a_live_clients", "live clients")
	h := r.NewHistogram("m_latency_seconds", "request latency", []float64{0.5, 2})
	c.Add(7)
	g.Set(3)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(9)

	const want = `# HELP a_live_clients live clients
# TYPE a_live_clients gauge
a_live_clients 3
# HELP m_latency_seconds request latency
# TYPE m_latency_seconds histogram
m_latency_seconds_bucket{le="0.5"} 1
m_latency_seconds_bucket{le="2"} 2
m_latency_seconds_bucket{le="+Inf"} 3
m_latency_seconds_sum 10.25
m_latency_seconds_count 3
# HELP z_requests_total requests served
# TYPE z_requests_total counter
z_requests_total 7
`
	var sb strings.Builder
	if err := WritePrometheusMerged(&sb, r); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("exposition format drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
