package tensor

// Exact fixed-point fold and finalize for fl's 128-bit accumulator (see
// internal/fl/exact.go, which defines the format and holds the scalar loops
// these kernels are tested against). A cell is a two's-complement integer
// worth value·2^60, kept as a high and a low limb in two parallel arrays.
// FixedFold and FixedFinalize run the AVX-512 kernels of fixed_amd64.s over
// whole 8-coordinate blocks and report how far they got; the caller's scalar
// loop takes the block they stopped at and the tail.

// fixedBlock is the coordinates one kernel step covers: one ZMM register of
// float64s or limbs.
const fixedBlock = 8

// FixedFold folds trunc(state[i]·scale·2^60) into the cells (hi[i], lo[i])
// for a prefix of state and returns its length: whole blocks, up to the
// first block holding a term the format cannot take (|c| ≥ 2^40, ±Inf,
// NaN), and none below the AVX-512 tier. hi and lo must be at least as long
// as state.
func FixedFold(hi, lo []uint64, state []float64, scale float64) int {
	if kernelISA < isaAVX512 || len(state) < fixedBlock {
		return 0
	}
	n := len(state) &^ (fixedBlock - 1)
	_, _ = hi[n-1], lo[n-1]
	return fixedFoldAVX512(&hi[0], &lo[0], &state[0], n, scale)
}

// FixedFinalize writes out[i] = cell i / div for a prefix of out and returns
// its length: whole blocks, up to the first block with a non-zero bad[i] (a
// poisoned coordinate), and none below the AVX-512 tier. hi, lo and bad must
// be at least as long as out.
func FixedFinalize(out []float64, hi, lo []uint64, bad []uint8, div float64) int {
	if kernelISA < isaAVX512 || len(out) < fixedBlock {
		return 0
	}
	n := len(out) &^ (fixedBlock - 1)
	_, _, _ = hi[n-1], lo[n-1], bad[n-1]
	return fixedFinalizeAVX512(&out[0], &hi[0], &lo[0], &bad[0], n, div)
}
