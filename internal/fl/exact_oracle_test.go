package fl

import (
	"fmt"
	"math"
	"math/bits"
)

// The reference the exact accumulator is tested against: the kernel as it
// stood before the bit-extracting rewrite (math.Frexp conversion, branchy
// negate, Ldexp finalize) and the two-accumulator StreamingFedAvg built on
// it, kept verbatim but for the ref prefix. The production code must agree
// with it bit for bit on every input; nothing outside tests calls it.

type refAcc struct{ hi, lo uint64 }

func (a *refAcc) add(hi, lo uint64) {
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi, _ = bits.Add64(a.hi, hi, c)
}

func (a *refAcc) addFloat(c float64) bool {
	hi, lo, ok := refFixFromFloat(c)
	if !ok {
		return false
	}
	a.add(hi, lo)
	return true
}

// refFixFromFloat converts c to the two's-complement 128-bit fixed-point
// representation of trunc(c·2^60); ok is false for NaN, ±Inf and |c| ≥ 2^40.
func refFixFromFloat(c float64) (hi, lo uint64, ok bool) {
	if c == 0 {
		return 0, 0, true
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, 0, false
	}
	neg := c < 0
	if neg {
		c = -c
	}
	if c >= float64(1<<40) {
		return 0, 0, false
	}
	fr, exp := math.Frexp(c)    // c = fr·2^exp, fr ∈ [0.5, 1)
	m := uint64(fr * (1 << 53)) // 53-bit integer mantissa, exact
	// c·2^60 = m · 2^(exp−53+60)
	shift := exp - 53 + 60
	switch {
	case shift <= -64:
		m = 0
	case shift < 0:
		m >>= uint(-shift) // truncate toward zero
	}
	if shift <= 0 {
		lo, hi = m, 0
	} else {
		lo = m << uint(shift)
		hi = m >> uint(64-shift)
	}
	if neg {
		hi, lo = refNeg128(hi, lo)
	}
	return hi, lo, true
}

func refNeg128(hi, lo uint64) (uint64, uint64) {
	lo = ^lo + 1
	hi = ^hi
	if lo == 0 {
		hi++
	}
	return hi, lo
}

func (a refAcc) float() float64 {
	hi, lo := a.hi, a.lo
	neg := hi>>63 != 0
	if neg {
		hi, lo = refNeg128(hi, lo)
	}
	v := math.Ldexp(float64(hi), 4) + math.Ldexp(float64(lo), -60)
	if neg {
		v = -v
	}
	return v
}

func (a refAcc) isZero() bool { return a.hi == 0 && a.lo == 0 }

type refVec struct {
	acc []refAcc
	bad []bool
}

func newRefVec(n int) *refVec {
	return &refVec{acc: make([]refAcc, n), bad: make([]bool, n)}
}

func (v *refVec) addScaled(state []float64, scale float64) {
	for i, x := range state {
		if !v.acc[i].addFloat(x * scale) {
			v.bad[i] = true
		}
	}
}

func (v *refVec) finalize(div float64, out []float64) {
	for i := range out {
		if v.bad[i] {
			out[i] = math.NaN()
			continue
		}
		out[i] = v.acc[i].float() / div
	}
}

// refFedAvg is the two-accumulator StreamingFedAvg: every update folds into
// both the weighted sum and the plain (staleness-weighted) sum, and a zero
// total weight finalizes the second.
type refFedAvg struct {
	weighted, plain *refVec
	wTotal, cTotal  refAcc
	count           int
}

func (a *refFedAvg) Fold(u *Update) error {
	if a.weighted == nil {
		a.weighted, a.plain = newRefVec(len(u.State)), newRefVec(len(u.State))
	}
	if len(u.State) != len(a.weighted.acc) {
		return fmt.Errorf("ref: update from client %d has %d values, want %d", u.ClientID, len(u.State), len(a.weighted.acc))
	}
	decay := StalenessWeight(u.Staleness)
	w := float64(u.NumSamples) * decay
	if !a.wTotal.addFloat(w) || !a.cTotal.addFloat(decay) {
		return fmt.Errorf("ref: update from client %d has unrepresentable weight %g", u.ClientID, w)
	}
	a.weighted.addScaled(u.State, w)
	a.plain.addScaled(u.State, decay)
	a.count++
	return nil
}

func (a *refFedAvg) Finalize() ([]float64, error) {
	if a.count == 0 {
		return nil, fmt.Errorf("ref: FedAvg of zero updates")
	}
	out := make([]float64, len(a.weighted.acc))
	if a.wTotal.isZero() {
		a.plain.finalize(a.cTotal.float(), out)
	} else {
		a.weighted.finalize(a.wTotal.float(), out)
	}
	return out, nil
}

// refFedAvgOf folds ups in order into a fresh reference aggregator.
func refFedAvgOf(ups []*Update) ([]float64, error) {
	var a refFedAvg
	for _, u := range ups {
		if err := a.Fold(u); err != nil {
			return nil, err
		}
	}
	return a.Finalize()
}
