package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
)

// gatherTapsScalar is Conv2D.im2col's scalar loop from tap from on:
// dst[j] = src[offs[j]], +0 for a negative offset.
func gatherTapsScalar(dst, src []float64, offs []int, from int) {
	for j := from; j < len(offs); j++ {
		keep := ^(offs[j] >> 63)
		dst[j] = math.Float64frombits(math.Float64bits(src[offs[j]&keep]) & uint64(keep))
	}
}

// scatterAddScalar is Conv2D.col2im's scalar loop from tap from on:
// dst[offs[j]] += src[j], negative offsets skipped.
func scatterAddScalar(dst, src []float64, offs []int, from int) {
	for j := from; j < len(offs); j++ {
		if offs[j] >= 0 {
			dst[offs[j]] += src[j]
		}
	}
}

// gatherCase holds GatherTaps plus the scalar rest, as im2col runs them, to
// the scalar loop over a stale destination.
func gatherCase(name string, src []float64, offs []int, stale []float64, cover int) kerneltest.Case {
	return kerneltest.Prefix(name, stale, cover, func(dst []float64) int { return GatherTaps(dst, src, offs) },
		func(dst []float64, k int) { gatherTapsScalar(dst, src, offs, k) })
}

// scatterCase holds ScatterAddRows plus the scalar rest, as col2im runs
// them, to the scalar loop over a stale destination.
func scatterCase(name string, src []float64, offs []int, width int, stale []float64, cover int) kerneltest.Case {
	return kerneltest.Prefix(name, stale, cover, func(dst []float64) int { return ScatterAddRows(dst, src, offs, width) },
		func(dst []float64, rows int) { scatterAddScalar(dst, src, offs, rows*width) })
}

// TestGatherTapsBitIdentical is gatherCase at every length up to 17 and at a
// tile's size: tables of random offsets with about a third padding, and of
// padding only. The kernel covers every whole block.
func TestGatherTapsBitIdentical(t *testing.T) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(97, kerneltest.Payloads)
		src := g.Values(61)
		for _, n := range kerneltest.Lengths(17, 4096+5) {
			for _, padOnly := range []bool{false, true} {
				offs := make([]int, n)
				for j := range offs {
					if offs[j] = g.Intn(len(src)); padOnly || g.Intn(3) == 0 {
						offs[j] = -1
					}
				}
				emit(gatherCase(fmt.Sprintf("n=%d padOnly=%v", n, padOnly), src, offs, g.Values(n), n&^7))
			}
		}
	})
}

// TestScatterAddRowsBitIdentical is scatterCase at widths 1 to 17 and a
// VGG11 first layer's 27 (none but 8 and 16 a multiple of the vector), up
// to nine rows, each row a random set of distinct offsets into a small
// destination (so rows keep adding into the same elements, and NaN + NaN is
// met) with about a third padding, and some rows padding only. The kernel
// covers every row.
func TestScatterAddRowsBitIdentical(t *testing.T) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(101, kerneltest.Payloads)
		for _, width := range append(kerneltest.Lengths(17)[1:], 27) {
			for rows := 0; rows <= 9; rows++ {
				offs := make([]int, rows*width)
				for r := 0; r < rows; r++ {
					row, padOnly := offs[r*width:][:width], g.Intn(4) == 0
					for j, off := range g.Perm(width + 3)[:width] {
						if row[j] = off; padOnly || g.Intn(3) == 0 {
							row[j] = -1
						}
					}
				}
				emit(scatterCase(fmt.Sprintf("width=%d rows=%d", width, rows), g.Values(len(offs)), offs, width, g.Values(width+3), rows))
			}
		}
	})
}

// TestTapKernelsStopAtOutOfRangeOffset pins the kernels' bounds: an offset
// at or past the end of the slice it indexes stops GatherTaps at the block
// holding it and ScatterAddRows at the row holding it, so the scalar loop
// meets the offset. Up to there the kernel plus the scalar rest match the
// scalar loop, and nothing past there is written.
func TestTapKernelsStopAtOutOfRangeOffset(t *testing.T) {
	const width = 5
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(103, kerneltest.Payloads)
		src, gather := g.Normal(20), make([]int, 40)
		for j := range gather {
			gather[j] = g.Intn(len(src))
		}
		gather[27] = len(src)
		scatter, rows := make([]int, 4*width), g.Normal(4*width)
		for r := 0; r < 4; r++ {
			copy(scatter[r*width:], g.Perm(len(src))[:width])
		}
		scatter[2*width+3] = len(src) + 1000
		emit(kerneltest.Prefix("GatherTaps with offset 27 out of range", g.Values(len(gather)), 24,
			func(dst []float64) int { return GatherTaps(dst, src, gather) },
			func(dst []float64, k int) { gatherTapsScalar(dst, src, gather[:24], k) }))
		emit(kerneltest.Prefix("ScatterAddRows with an offset out of range in row 2", g.Normal(len(src)), 2,
			func(dst []float64) int { return ScatterAddRows(dst, rows, scatter, width) },
			func(dst []float64, k int) { scatterAddScalar(dst, rows, scatter[:2*width], k*width) }))
	})
}

// TestTapKernelsShortSlicePanics pins the wrappers' length checks: on the
// AVX-512 tier a destination shorter than the gather's table, or a source
// shorter than the scatter's, panics before the kernel writes anything.
func TestTapKernelsShortSlicePanics(t *testing.T) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(107, kerneltest.Payloads)
		src, offs := g.Normal(16), kerneltest.Lengths(15)
		emit(kerneltest.Short("GatherTaps into a short dst", g.Normal(15), func(dst []float64) { GatherTaps(dst, src, offs) }))
		emit(kerneltest.Short("ScatterAddRows from a short src", g.Normal(16), func(dst []float64) { ScatterAddRows(dst, src[:15], offs, 8) }))
	})
}

// FuzzGatherTaps holds GatherTaps plus the scalar rest to the scalar loop
// over arbitrary tables: offsets from −3 to two past the source's end, so
// some runs must panic. Both sides must panic, or both write the same bits
// with every whole block on the kernel.
func FuzzGatherTaps(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), int64(1))
	f.Add(uint8(17), uint8(9), uint8(3), int64(2))
	f.Add(uint8(64), uint8(40), uint8(1), int64(3))
	f.Add(uint8(200), uint8(255), uint8(8), int64(4))
	f.Fuzz(func(t *testing.T, nu, lu, pu uint8, seed int64) {
		g := kerneltest.NewGen(seed, kerneltest.Payloads)
		src, offs := g.Values(int(lu)), make([]int, int(nu))
		for j := range offs {
			switch g.Intn(int(pu%8) + 2) {
			case 0:
				offs[j] = -1 - g.Intn(3)
			case 1:
				offs[j] = len(src) + g.Intn(2)
			default:
				offs[j] = g.Intn(len(src) + 1)
			}
		}
		cover, rejects := len(offs)&^7, false
		if len(src) == 0 {
			cover = 0
		}
		for _, off := range offs {
			rejects = rejects || max(off, 0) >= len(src)
		}
		c := gatherCase("fuzz", src, offs, g.Values(len(offs)), cover)
		c.Rejects = rejects
		serial.Check(t, c)
	})
}

// convTapTable returns the tap table of a stride-1 k×k convolution with
// padding pad over one inC×h×w item: for each output position, the inC·k·k
// input offsets it reads, -1 in the padding.
func convTapTable(inC, h, w, k, pad int) []int {
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	var offs []int
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < inC; ch++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix, off := oy-pad+ky, ox-pad+kx, -1
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							off = (ch*h+iy)*w + ix
						}
						offs = append(offs, off)
					}
				}
			}
		}
	}
	return offs
}

// BenchmarkGatherTaps times one batch item's column rows of VGG11's first
// convolution (3×16×16 input, 3×3 kernel, padding 1: 256 rows of 27 taps)
// on every tier the host runs, kernel plus scalar rest as im2col runs them.
func BenchmarkGatherTaps(b *testing.B) {
	offs := convTapTable(3, 16, 16, 3, 1)
	src, dst := kerneltest.NewGen(109, nil).Normal(3*16*16), make([]float64, len(offs))
	kt.Bench(b, "", len(offs), "tap", func() { gatherTapsScalar(dst, src, offs, GatherTaps(dst, src, offs)) })
}

// BenchmarkScatterAddRows is BenchmarkGatherTaps's adjoint: one batch
// item's gradient-column rows added back, as col2im runs them.
func BenchmarkScatterAddRows(b *testing.B) {
	offs := convTapTable(3, 16, 16, 3, 1)
	src, dst := kerneltest.NewGen(113, nil).Normal(len(offs)), make([]float64, 3*16*16)
	kt.Bench(b, "", len(offs), "tap", func() { scatterAddScalar(dst, src, offs, 27*ScatterAddRows(dst, src, offs, 27)) })
}
