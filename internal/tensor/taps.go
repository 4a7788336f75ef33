package tensor

// Tap-table moves for the convolution's column matrix (see Conv2D in
// internal/nn, which builds the tables and holds the scalar loops these
// kernels are tested against). A tap table maps each column element to an
// offset into one batch item's input, or to a negative offset for padding.
// GatherTaps and ScatterAddRows run the AVX-512 kernels of taps_amd64.s over
// the longest prefix they cover and report its length; the caller's scalar
// loop runs the rest. The kernels check every offset against the slice it
// indexes and stop before a block or row holding one past its end, so the
// scalar loop meets that offset and panics as a bounds-checked loop does.

// tapBlock is how many taps one kernel step moves: one ZMM register of
// offsets.
const tapBlock = 8

// GatherTaps writes dst[j] = src[offs[j]], or +0 where offs[j] is negative,
// for a prefix of offs and returns its length: whole blocks, up to the first
// block holding an offset at or past len(src), and none below the AVX-512
// tier. dst must be at least as long as offs.
func GatherTaps(dst, src []float64, offs []int) int {
	if kernelISA < isaAVX512 || len(offs) < tapBlock || len(src) == 0 {
		return 0
	}
	n := len(offs) &^ (tapBlock - 1)
	_ = dst[n-1]
	return gatherTapsAVX512(&dst[0], &src[0], &offs[0], n, len(src))
}

// ScatterAddRows runs dst[offs[j]] += src[j] for every j with a
// non-negative offset, over a prefix of offs made of whole width-wide rows,
// and returns how many rows: up to the first row holding an offset at or
// past len(dst), and none below the AVX-512 tier. Rows go in ascending
// order, and the non-negative offsets within one row must be distinct, so
// every dst element takes its additions in the scalar loop's order. src must
// be at least as long as offs.
func ScatterAddRows(dst, src []float64, offs []int, width int) int {
	if kernelISA < isaAVX512 || width <= 0 || len(offs) < width || len(dst) == 0 {
		return 0
	}
	rows := len(offs) / width
	_ = src[rows*width-1]
	return scatterAddRowsAVX512(&dst[0], &src[0], &offs[0], rows, width, len(dst))
}
