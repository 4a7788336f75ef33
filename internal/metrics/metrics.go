// Package metrics implements the evaluation metrics of the paper's
// Appendix A — attack AUC, model accuracy/utility aggregation, the
// Jensen–Shannon divergence used by the layer-leakage analysis — plus the
// cost meters (wall-clock time and memory) behind Table 3.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadInput is returned for degenerate metric inputs.
var ErrBadInput = errors.New("metrics: bad input")

// AUC computes the area under the ROC curve for binary classification given
// real-valued scores (higher = more likely positive) and boolean labels. Ties
// are handled with mid-ranks, making the result equal to the normalized
// Mann–Whitney U statistic. It returns an error when either class is absent.
func AUC(scores []float64, positives []bool) (float64, error) {
	if len(scores) != len(positives) {
		return 0, fmt.Errorf("%w: %d scores for %d labels", ErrBadInput, len(scores), len(positives))
	}
	type item struct {
		score float64
		pos   bool
	}
	items := make([]item, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		items[i] = item{score: s, pos: positives[i]}
		if positives[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("%w: need both classes (pos=%d neg=%d)", ErrBadInput, nPos, nNeg)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score < items[j].score })

	// Assign mid-ranks to ties.
	rankSumPos := 0.0
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].score == items[i].score {
			j++
		}
		// ranks i+1..j (1-based); mid-rank:
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if items[k].pos {
				rankSumPos += mid
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Histogram bins samples into n equal-width bins over [lo, hi], returning
// normalized frequencies (a probability vector). Samples outside the range
// are clamped into the boundary bins.
func Histogram(samples []float64, lo, hi float64, n int) ([]float64, error) {
	if n <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: histogram range [%v,%v] bins %d", ErrBadInput, lo, hi, n)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: histogram of no samples", ErrBadInput)
	}
	h := make([]float64, n)
	width := (hi - lo) / float64(n)
	for _, s := range samples {
		b := int((s - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		h[b]++
	}
	inv := 1 / float64(len(samples))
	for i := range h {
		h[i] *= inv
	}
	return h, nil
}

// KLDivergence computes D_KL(p ‖ q) in nats for probability vectors p, q.
// Bins where p is zero contribute nothing; bins where q is zero and p is not
// would be infinite, so q is smoothed by eps.
func KLDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: KL of %d vs %d bins", ErrBadInput, len(p), len(q))
	}
	const eps = 1e-12
	d := 0.0
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		d += p[i] * math.Log(p[i]/(q[i]+eps))
	}
	return d, nil
}

// JSDivergence computes the Jensen–Shannon divergence between probability
// vectors p and q in nats: JS = ½KL(p‖m) + ½KL(q‖m) with m = (p+q)/2.
// It is symmetric and bounded by ln 2.
func JSDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: JS of %d vs %d bins", ErrBadInput, len(p), len(q))
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	kp, err := KLDivergence(p, m)
	if err != nil {
		return 0, err
	}
	kq, err := KLDivergence(q, m)
	if err != nil {
		return 0, err
	}
	return (kp + kq) / 2, nil
}

// JSDivergenceSamples estimates the Jensen–Shannon divergence between the
// distributions underlying two sample sets by histogramming both over their
// common range with the given number of bins. This is the generalization-gap
// measure of the paper's §3/§4.1: the divergence between member and
// non-member per-layer gradient magnitude distributions.
func JSDivergenceSamples(a, b []float64, bins int) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("%w: JS of empty sample sets", ErrBadInput)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range a {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range b {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi <= lo {
		// All samples identical: distributions coincide.
		return 0, nil
	}
	pa, err := Histogram(a, lo, hi, bins)
	if err != nil {
		return 0, err
	}
	pb, err := Histogram(b, lo, hi, bins)
	if err != nil {
		return 0, err
	}
	return JSDivergence(pa, pb)
}
