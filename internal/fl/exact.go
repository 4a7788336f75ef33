package fl

import (
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Exact fixed-point accumulation.
//
// The streaming aggregation path folds updates in arrival order while the
// materialized path processes them sorted by client id; float64 addition is
// not associative, so accumulating in floating point would let the two
// paths drift by rounding. Instead every contribution is converted exactly
// to a signed 128-bit fixed-point integer (60 fractional bits) and summed
// with integer carries. Integer addition is commutative and associative, so
// any fold order — arrival order, sorted order, or a crash/resume split —
// produces bit-identical accumulator state, and the single rounding step
// happens once at finalize
// time. This is what makes streaming FedAvg bit-identical to materialized
// FedAvg at the same seed.
//
// Representable contributions are |c| < 2^40 (ample for model coordinates
// scaled by sample counts); anything larger, or non-finite, permanently
// poisons the coordinate, which finalizes to NaN — mirroring how a float
// sum would be destroyed by an Inf/NaN term. The 2^40 bound guarantees the
// 128-bit accumulator cannot overflow for up to 2^24 (≈16.7M) folds.
// Magnitudes below 2^-60 truncate toward zero, far beneath float64's own
// resolution near the finalized values.
//
// The conversion reads the float's bits; nothing branches on the value of a
// contributing term. A float64 with biased exponent e ≥ 1 and fraction f is
// m·2^(e−1075) for the 53-bit integer m = 2^52 + f, so c·2^60 = m·2^(e−1015).
// With the mantissa left-aligned in a word, M = m·2^11, and that word placed
// in the high limb of a 128-bit integer (worth M·2^64), the fixed-point term
// is the limb pair shifted right by r = 64 + 1026 − e = 1090 − e, which
// truncates toward zero exactly as the definition asks:
//
//   - r < 28 is e ≥ 1023+40: |c| ≥ 2^40, or (e = 2047) NaN or ±Inf — poison;
//   - 28 ≤ r < 128 contributes, and fits the two limbs with room to spare;
//   - r ≥ 128 is e ≤ 962: |c| < 2^-60, every subnormal, ±0 — the whole
//     mantissa shifts out and the term is zero.
//
// One unsigned comparison separates the middle case from the other two. A
// negative term is the complement of its magnitude plus one; the plus one
// rides in as the carry-in of the low limb's add, so sign costs two XORs.
//
// One aggregation round keeps one exactVec: 16 bytes of accumulator and one
// byte of poison marks per coordinate, 17 in all, independent of how many
// updates fold into it (see StreamingFedAvg for how the zero-weight mean
// shares it). The materialized FedAvg keeps only one cache-sized tile of
// it at a time.
//
// On an AVX-512 host the fold and the finalize run in the kernels of
// internal/tensor (FixedFold, FixedFinalize: eight coordinates a ZMM
// register, limb shifts with VPSRLVQ/VPSLLVQ, carries with VPCMPUQ, the
// finalize through VCVTUQQ2PD and VDIVPD). They compute these loops' bits:
// the limb arithmetic is exact integer addition, and each conversion and
// the division round once, to nearest, as the scalar code's do. A block of
// eight holding a term the format cannot take, or a poisoned coordinate,
// is left to the scalar loops below, which also run the tail and every
// other host.

const (
	// fixFracBits is the number of fractional bits in the fixed-point
	// representation.
	fixFracBits = 60
	// fixShiftBase − e is the right shift r derived above.
	fixShiftBase = 1023 + 52 + 11 + 64 - fixFracBits
	// fixMinShift is r at e = 1023+40−1, the largest exponent below 2^40: a
	// smaller shift poisons, and one of 128 or more contributes nothing.
	fixMinShift = fixShiftBase - (1023 + 40 - 1)
	// fixBlock is the kernels' block: when one stops, the scalar loops take
	// the next fixBlock coordinates and hand the rest back.
	fixBlock = 8
)

// fixAcc is one exact accumulator cell: a two's-complement 128-bit integer
// held as two uint64 limbs, representing value × 2^60.
type fixAcc struct{ hi, lo uint64 }

// fixShift returns the shift r for a float64's bits b.
func fixShift(b uint64) int { return fixShiftBase - int(b>>52&0x7ff) }

// fixContributes reports whether a term with shift r has a non-zero
// magnitude that fits: fixMinShift ≤ r < 128, in one comparison.
func fixContributes(r int) bool { return uint(r-fixMinShift) < 128-fixMinShift }

// fixLimbs returns the magnitude trunc(|c|·2^60) for the bits b of a c that
// fixContributes: the limb pair (M, 0) shifted right by r. x = M >> (r mod 64)
// is the high limb when r < 64 and the low limb otherwise; y, the bits x
// shifted out, is the low limb when r < 64. Both machine shifts are by less
// than 64, and the mask t (all ones when r < 64) selects, so no step
// branches on the value.
func fixLimbs(b uint64, r int) (hi, lo uint64) {
	m := b<<11 | 1<<63
	x := m >> (uint(r) & 63)
	y := m << 1 << (^uint(r) & 63)
	t := uint64(int64(r-64) >> 63)
	return x & t, x ^ (x^y)&t
}

// addSigned adds the magnitude (hi, lo), negated when the sign mask s is
// all ones: the complement limb by limb, the plus one as the carry-in.
func (a *fixAcc) addSigned(hi, lo, s uint64) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, lo^s, s&1)
	a.hi, _ = bits.Add64(a.hi, hi^s, carry)
}

// addFloat folds trunc(c·2^60) into the cell; it reports false (folding
// nothing) when c is NaN, ±Inf or |c| ≥ 2^40.
func (a *fixAcc) addFloat(c float64) bool {
	b := math.Float64bits(c)
	r := fixShift(b)
	if !fixContributes(r) {
		return r >= 128
	}
	hi, lo := fixLimbs(b, r)
	a.addSigned(hi, lo, uint64(int64(b)>>63))
	return true
}

// float converts the accumulated value back to float64. The two limbs of
// the magnitude are rounded independently, scaled by exact powers of two
// and summed — a deterministic function of the accumulator bits, within
// 1 ulp of the true value. The low limb is converted in two exact 32-bit
// halves whose sum rounds once, which is float64(lo) without the branch a
// uint64 conversion takes on the limb's (arbitrary) top bit.
func (a fixAcc) float() float64 {
	s := uint64(int64(a.hi) >> 63) // all ones for a negative cell
	lo, carry := bits.Add64(a.lo^s, s&1, 0)
	hi := a.hi ^ s + carry
	l := float64(uint32(lo>>32))*(1<<32) + float64(uint32(lo))
	v := float64(hi)*(1<<(64-fixFracBits)) + l*(1.0/(1<<fixFracBits))
	return math.Float64frombits(math.Float64bits(v) | s<<63)
}

// isZero reports whether the cell holds exactly zero.
func (a fixAcc) isZero() bool { return a.hi == 0 && a.lo == 0 }

// Poison marks. The two causes are told apart because a zero weight erases
// the first and not the second: x·0 is 0 for any finite x, NaN otherwise.
const (
	poisonRange     uint8 = 1 << iota // a finite contribution with |c| ≥ 2^40
	poisonNonFinite                   // a NaN or ±Inf contribution
)

// exactVec is an exact accumulator over a state vector: one cell per
// coordinate, its limbs in two parallel arrays (hi[i], lo[i]) so a vector
// kernel loads eight of either at once, plus sticky poison marks for
// unrepresentable contributions.
type exactVec struct {
	hi, lo []uint64
	bad    []uint8
}

// reset zeroes the accumulator for n-coordinate states, reusing its memory
// when it is large enough.
func (v *exactVec) reset(n int) {
	if cap(v.hi) < n {
		v.hi, v.lo, v.bad = make([]uint64, n), make([]uint64, n), make([]uint8, n)
		return
	}
	v.hi, v.lo, v.bad = v.hi[:n], v.lo[:n], v.bad[:n]
	clear(v.hi)
	clear(v.lo)
	clear(v.bad)
}

// forgetFinite zeroes the cells and drops the range marks, leaving the
// accumulator as if every state folded so far had been scaled by zero.
func (v *exactVec) forgetFinite() {
	clear(v.hi)
	clear(v.lo)
	for i, b := range v.bad {
		v.bad[i] = b & poisonNonFinite
	}
}

// addScaled folds state[i]·scale into every coordinate. len(state) must
// equal the accumulator length (callers validate). The AVX-512 kernel
// (tensor.FixedFold) folds whole blocks of eight until it meets a block
// with a term the format cannot take; the loop below takes that block, the
// tail, and everything on a host without the kernel. It is addFloat spelled
// out per coordinate (addFloat is past the inliner's budget, and the call
// costs the pass 40 % more), plus the poison mark addFloat's false does not
// tell apart.
func (v *exactVec) addScaled(state []float64, scale float64) {
	n := len(state)
	hi, lo, bad := v.hi[:n], v.lo[:n], v.bad[:n]
	for i := 0; i < n; {
		i += tensor.FixedFold(hi[i:], lo[i:], state[i:], scale)
		for end := min(i+fixBlock, n); i < end; i++ {
			c := state[i] * scale
			b := math.Float64bits(c)
			r := fixShift(b)
			if !fixContributes(r) {
				switch {
				case r >= 128: // |c| < 2^-60
				case c-c == 0: // finite
					bad[i] |= poisonRange
				default:
					bad[i] |= poisonNonFinite
				}
				continue
			}
			mhi, mlo := fixLimbs(b, r)
			cell := fixAcc{hi[i], lo[i]}
			cell.addSigned(mhi, mlo, uint64(int64(b)>>63))
			hi[i], lo[i] = cell.hi, cell.lo
		}
	}
}

// finalize writes the accumulated values divided by div into out (out must
// have the accumulator length). Poisoned coordinates finalize to NaN. The
// kernel (tensor.FixedFinalize) runs first, as in addScaled, and stops at a
// block with a poisoned coordinate.
func (v *exactVec) finalize(div float64, out []float64) {
	n := len(out)
	hi, lo, bad := v.hi[:n], v.lo[:n], v.bad[:n]
	for i := 0; i < n; {
		i += tensor.FixedFinalize(out[i:], hi[i:], lo[i:], bad[i:], div)
		for end := min(i+fixBlock, n); i < end; i++ {
			if bad[i] != 0 {
				out[i] = math.NaN()
				continue
			}
			out[i] = fixAcc{hi[i], lo[i]}.float() / div
		}
	}
}

// bytes reports the accumulator's memory footprint, for the aggregation
// peak-memory gauge.
func (v *exactVec) bytes() int { return len(v.hi)*16 + len(v.bad) }
