// Package plot renders terminal sparklines: dinar-audit and the audit example
// print a model's per-layer leakage profile (the paper's Fig. 1 curve) as one
// row of block characters.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series renders values as one labeled sparkline row under title, scaled
// from the lowest value to the highest. An empty series renders the title
// alone.
func Series(title, label string, values []float64) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	if len(values) == 0 {
		return sb.String()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	sb.WriteString(label)
	sb.WriteByte(' ')
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		sb.WriteRune(levels[idx])
	}
	sb.WriteString(fmt.Sprintf("  [%.3g..%.3g]\n", lo, hi))
	return sb.String()
}
