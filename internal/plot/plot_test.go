package plot

import (
	"strings"
	"testing"
)

func TestSeries(t *testing.T) {
	out := Series("divergence", "purchase100", []float64{0.1, 0.2, 0.3, 0.9})
	if !strings.Contains(out, "purchase100") {
		t.Fatalf("missing label:\n%s", out)
	}
	if !strings.Contains(out, "█") || !strings.Contains(out, "▁") {
		t.Fatalf("sparkline levels missing:\n%s", out)
	}
	// Constant series must not panic and renders the lowest level.
	out = Series("", "c", []float64{1, 1, 1})
	if !strings.Contains(out, "▁▁▁") {
		t.Fatalf("constant series:\n%s", out)
	}
	// An empty series renders no row.
	if out = Series("t", "e", nil); out != "t\n" {
		t.Fatalf("empty series rendered:\n%s", out)
	}
}
