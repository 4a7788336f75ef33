package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// tapSpecials are planted in the sources and destinations of the tap tests:
// quiet and signalling NaNs of both signs with distinct payloads (so a NaN +
// NaN shows whose payload an add keeps), ±Inf and −0.
var tapSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff4000000000123), math.Float64frombits(0xfff0000000000777),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
}

// tapValues returns n normal values with about one in four replaced by a
// tap special.
func tapValues(rng *rand.Rand, n int) []float64 {
	v := randSlice(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = tapSpecials[rng.Intn(len(tapSpecials))]
		}
	}
	return v
}

// gatherTapsScalar is Conv2D.im2col's scalar loop: dst[j] = src[offs[j]],
// +0 for a negative offset.
func gatherTapsScalar(dst, src []float64, offs []int) {
	for j, off := range offs {
		keep := ^(off >> 63)
		dst[j] = math.Float64frombits(math.Float64bits(src[off&keep]) & uint64(keep))
	}
}

// scatterAddScalar is Conv2D.col2im's scalar loop: dst[offs[j]] += src[j],
// negative offsets skipped.
func scatterAddScalar(dst, src []float64, offs []int) {
	for j, off := range offs {
		if off >= 0 {
			dst[off] += src[j]
		}
	}
}

// gatherTaps runs GatherTaps and the scalar loop over what it left, as
// im2col does, and returns the kernel's prefix.
func gatherTaps(dst, src []float64, offs []int) int {
	k := GatherTaps(dst, src, offs)
	gatherTapsScalar(dst[k:], src, offs[k:])
	return k
}

// scatterAddRows runs ScatterAddRows and the scalar loop over what it left,
// as col2im does, and returns the kernel's row count.
func scatterAddRows(dst, src []float64, offs []int, width int) int {
	k := ScatterAddRows(dst, src, offs, width)
	scatterAddScalar(dst, src[k*width:], offs[k*width:])
	return k
}

// firstBitDiff reports the first index where a and b hold different bit
// patterns, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestGatherTapsBitIdentical holds GatherTaps plus the scalar rest, on every
// tier the host runs, to the scalar loop at every length up to 17 and at a
// tile's size: tables of random offsets with about a third padding, and of
// padding only, over a source and a stale destination holding NaN payloads,
// ±Inf and −0. On the AVX-512 tier the kernel must cover every whole block.
func TestGatherTapsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	src := tapValues(rng, 61)
	lengths := []int{4096 + 5}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	forEachTier(t, func(t *testing.T) {
		for _, n := range lengths {
			for _, padOnly := range []bool{false, true} {
				offs := make([]int, n)
				for j := range offs {
					if offs[j] = rng.Intn(len(src)); padOnly || rng.Intn(3) == 0 {
						offs[j] = -1
					}
				}
				stale := tapValues(rng, n)
				want, got := append([]float64(nil), stale...), append([]float64(nil), stale...)
				gatherTapsScalar(want, src, offs)
				k := gatherTaps(got, src, offs)
				if wantK := n &^ 7; kernelISA >= isaAVX512 && k != wantK {
					t.Fatalf("n=%d: kernel covered %d taps, want %d", n, k, wantK)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d padOnly=%v: dst[%d] = %#x (offset %d), scalar %#x",
						n, padOnly, i, math.Float64bits(got[i]), offs[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// TestScatterAddRowsBitIdentical holds ScatterAddRows plus the scalar rest,
// on every tier the host runs, to the scalar loop: widths 1 to 17 and a
// VGG11 first layer's 27 (none but 8 and 16 a multiple of the vector), up
// to nine rows, each row a random set of distinct offsets into a small
// destination (so rows keep adding into the same elements) with about a
// third padding, and some rows padding only. Sources and destinations hold
// NaN payloads, ±Inf and −0, so NaN + NaN is met. On the AVX-512 tier the
// kernel must cover every row.
func TestScatterAddRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	forEachTier(t, func(t *testing.T) {
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 27} {
			for rows := 0; rows <= 9; rows++ {
				dstLen := width + 3
				offs := make([]int, rows*width)
				for r := 0; r < rows; r++ {
					row, padOnly := offs[r*width:][:width], rng.Intn(4) == 0
					for j, off := range rng.Perm(dstLen)[:width] {
						if row[j] = off; padOnly || rng.Intn(3) == 0 {
							row[j] = -1
						}
					}
				}
				src, dst := tapValues(rng, len(offs)), tapValues(rng, dstLen)
				want, got := append([]float64(nil), dst...), append([]float64(nil), dst...)
				scatterAddScalar(want, src, offs)
				k := scatterAddRows(got, src, offs, width)
				if kernelISA >= isaAVX512 && k != rows {
					t.Fatalf("width=%d: kernel covered %d rows, want %d", width, k, rows)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("width=%d rows=%d: dst[%d] = %#x, scalar %#x",
						width, rows, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// TestTapKernelsStopAtOutOfRangeOffset pins the kernels' bounds: an offset
// at or past the end of the slice it indexes stops GatherTaps at the block
// holding it and ScatterAddRows at the row holding it, that row's
// destination untouched, so the scalar loop meets the offset and panics.
func TestTapKernelsStopAtOutOfRangeOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	forEachTier(t, func(t *testing.T) {
		src := randSlice(rng, 20)
		offs := make([]int, 40)
		for j := range offs {
			offs[j] = rng.Intn(len(src))
		}
		offs[27] = len(src)
		// onKernel is the prefix the kernels must cover on the AVX-512 tier;
		// below it they cover none.
		onKernel := func(n int) int {
			if kernelISA < isaAVX512 {
				return 0
			}
			return n
		}
		if k := GatherTaps(make([]float64, len(offs)), src, offs); k != onKernel(24) {
			t.Fatalf("GatherTaps covered %d taps with offset 27 out of range, want %d", k, onKernel(24))
		}

		const width = 5
		offs = make([]int, 4*width)
		for r := 0; r < 4; r++ {
			copy(offs[r*width:], rng.Perm(len(src))[:width])
		}
		offs[2*width+3] = len(src) + 1000
		rows, dst := randSlice(rng, len(offs)), randSlice(rng, len(src))
		want := append([]float64(nil), dst...)
		k := ScatterAddRows(dst, rows, offs, width)
		if k != onKernel(2) {
			t.Fatalf("ScatterAddRows covered %d rows with an offset out of range in row 2, want %d", k, onKernel(2))
		}
		scatterAddScalar(want, rows[:k*width], offs[:k*width])
		if i := firstBitDiff(dst, want); i >= 0 {
			t.Fatalf("ScatterAddRows wrote dst[%d] past the rows it reported", i)
		}
	})
}

// TestTapKernelsShortSlicePanics pins the wrappers' length checks: on the
// AVX-512 tier a destination shorter than the gather's table, or a source
// shorter than the scatter's, panics before the kernel writes anything.
func TestTapKernelsShortSlicePanics(t *testing.T) {
	if hostISA < isaAVX512 {
		t.Skip("no AVX-512 tier on this host")
	}
	rng := rand.New(rand.NewSource(107))
	src := randSlice(rng, 16)
	offs := make([]int, 16)
	for j := range offs {
		offs[j] = j
	}
	mustPanic := func(what string, dst []float64, f func()) {
		t.Helper()
		before := append([]float64(nil), dst...)
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
			if i := firstBitDiff(dst, before); i >= 0 {
				t.Errorf("%s wrote dst[%d] before panicking", what, i)
			}
		}()
		f()
	}
	short := make([]float64, 15)
	mustPanic("GatherTaps into a short dst", short, func() { GatherTaps(short, src, offs) })
	dst := randSlice(rng, 16)
	mustPanic("ScatterAddRows from a short src", dst, func() { ScatterAddRows(dst, src[:15], offs, 8) })
}

// FuzzGatherTaps holds GatherTaps plus the scalar rest to the scalar loop,
// on every tier the host runs, over arbitrary tables: offsets from −3 to two
// past the source's end, so some runs must panic. Both sides must panic, or
// both write the same bits.
func FuzzGatherTaps(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), int64(1))
	f.Add(uint8(17), uint8(9), uint8(3), int64(2))
	f.Add(uint8(64), uint8(40), uint8(1), int64(3))
	f.Add(uint8(200), uint8(255), uint8(8), int64(4))
	f.Fuzz(func(t *testing.T, nu, lu, pu uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, offs := tapValues(rng, int(lu)), make([]int, int(nu))
		for j := range offs {
			switch rng.Intn(int(pu%8) + 2) {
			case 0:
				offs[j] = -1 - rng.Intn(3)
			case 1:
				offs[j] = len(src) + rng.Intn(2)
			default:
				offs[j] = rng.Intn(len(src) + 1)
			}
		}
		run := func(fill func(dst []float64)) (dst []float64, panicked bool) {
			dst = tapValues(rand.New(rand.NewSource(seed)), len(offs))
			defer func() { panicked = recover() != nil }()
			fill(dst)
			return dst, false
		}
		want, wantPanic := run(func(dst []float64) { gatherTapsScalar(dst, src, offs) })
		ForEachKernelISA(func(name string) {
			got, gotPanic := run(func(dst []float64) { gatherTaps(dst, src, offs) })
			if gotPanic != wantPanic {
				t.Fatalf("%s: panicked %v, scalar loop %v", name, gotPanic, wantPanic)
			}
			if i := firstBitDiff(got, want); !wantPanic && i >= 0 {
				t.Fatalf("%s: dst[%d] = %#x (offset %d), scalar %#x",
					name, i, math.Float64bits(got[i]), offs[i], math.Float64bits(want[i]))
			}
		})
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
	src, dst := randSlice(rand.New(rand.NewSource(109)), 3*16*16), make([]float64, len(offs))
	ForEachKernelISA(func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gatherTaps(dst, src, offs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(offs)), "ns/tap")
		})
	})
}

// BenchmarkScatterAddRows is BenchmarkGatherTaps's adjoint: one batch
// item's gradient-column rows added back, as col2im runs them.
func BenchmarkScatterAddRows(b *testing.B) {
	offs := convTapTable(3, 16, 16, 3, 1)
	src, dst := randSlice(rand.New(rand.NewSource(113)), len(offs)), make([]float64, 3*16*16)
	ForEachKernelISA(func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scatterAddRows(dst, src, offs, 27)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(offs)), "ns/tap")
		})
	})
}
