package telemetry

import (
	"strings"
	"testing"
)

func TestLabeledRegistryRendersJobLabel(t *testing.T) {
	r := NewLabeledRegistry("job", "alpha")
	r.Counter("test_events_total", "events").Add(3)
	r.Gauge("test_depth", "depth").Set(7)
	r.Histogram("test_lat_seconds", "latency", []float64{0.1, 1}).Observe(0.05)

	var sb strings.Builder
	if err := WritePrometheusMerged(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_events_total{job="alpha"} 3`,
		`test_depth{job="alpha"} 7`,
		`test_lat_seconds_bucket{job="alpha",le="0.1"} 1`,
		`test_lat_seconds_bucket{job="alpha",le="+Inf"} 1`,
		`test_lat_seconds_count{job="alpha"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestMergedExpositionGroupsByName pins the multi-registry writer: one
// HELP/TYPE header per metric name, then every registry's samples — the
// shape Prometheus requires when two jobs export the same metric.
func TestMergedExpositionGroupsByName(t *testing.T) {
	a := NewLabeledRegistry("job", "a")
	b := NewLabeledRegistry("job", "b")
	a.Counter("test_rounds_total", "rounds").Add(1)
	b.Counter("test_rounds_total", "rounds").Add(2)
	b.Gauge("test_only_b", "solo").Set(5)

	var sb strings.Builder
	if err := WritePrometheusMerged(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE test_rounds_total counter"); n != 1 {
		t.Errorf("want exactly one TYPE header for test_rounds_total, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, `test_rounds_total{job="a"} 1`) || !strings.Contains(out, `test_rounds_total{job="b"} 2`) {
		t.Errorf("merged exposition missing per-job samples:\n%s", out)
	}
	// Both samples must sit under the single header, adjacent.
	ai := strings.Index(out, `test_rounds_total{job="a"}`)
	bi := strings.Index(out, `test_rounds_total{job="b"}`)
	hi := strings.Index(out, "# TYPE test_rounds_total")
	if !(hi < ai && ai < bi) {
		t.Errorf("samples not grouped under their header (header=%d a=%d b=%d)", hi, ai, bi)
	}
	if !strings.Contains(out, `test_only_b{job="b"} 5`) {
		t.Errorf("merged exposition missing single-registry metric:\n%s", out)
	}
}

// TestIdempotentGetters pins the lookup-or-create behavior pause/resume
// depends on: re-registering the same instrument returns the existing
// one (state intact), while a kind clash still panics.
func TestIdempotentGetters(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("test_twice_total", "h")
	c1.Add(4)
	c2 := r.Counter("test_twice_total", "h")
	if c1 != c2 {
		t.Fatal("Counter returned a new instrument for an existing name")
	}
	if got := c2.Value(); got != 4 {
		t.Fatalf("re-registered counter lost state: got %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("test_twice_total", "h")
}
