package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
)

// bnEach calls f with the channel and index of every element of xd, item
// by item from item from on, as BatchNorm's loops in internal/nn walk them.
func bnEach(xd []float64, C, spatial, from int, f func(c, i int)) {
	for bi := from; bi < len(xd)/(C*spatial); bi++ {
		for c := 0; c < C; c++ {
			for i := (bi*C + c) * spatial; i < (bi*C+c+1)*spatial; i++ {
				f(c, i)
			}
		}
	}
}

// bnNormalizeScalar is BatchNorm's normalize loop (bnNormalize in
// internal/nn) from item from on.
func bnNormalizeScalar(od, xd, mean, invStd, gd, bd []float64, C, spatial, from int) {
	bnEach(xd, C, spatial, from, func(c, i int) {
		xh := (xd[i] - mean[c]) * invStd[c]
		od[i] = gd[c]*xh + bd[c]
	})
}

// bnGradInScalar is BatchNorm's input-gradient loop (bnGradIn in
// internal/nn) from item from on.
func bnGradInScalar(gid, god, xd, mean, invStd, k, dbeta, dgamma []float64, C, spatial, from int) {
	bnEach(xd, C, spatial, from, func(c, i int) {
		xh := (xd[i] - mean[c]) * invStd[c]
		gid[i] = k[c] * (god[i] - dbeta[c] - xh*dgamma[c])
	})
}

// keepPositiveScalar is keepPositive's loop in internal/nn from element
// from on: src where sign is positive, +0 elsewhere.
func keepPositiveScalar(dst, src, sign []float64, from int) {
	for i := from; i < len(src); i++ {
		var m uint64
		if sign[i] > 0 {
			m = ^uint64(0)
		}
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & m)
	}
}

// maxPool2x2Scalar is MaxPool2D's forward loop in internal/nn for 2×2
// windows at stride 2 over rows of width 2·ow, from output from on: the
// first strict maximum of each window in row-major tap order, and its index
// plus base.
func maxPool2x2Scalar(dst []float64, argmax []int, src []float64, ow, base, from int) {
	w := 2 * ow
	for o := from; o < len(dst); o++ {
		bi := 2*(o/ow)*w + 2*(o%ow)
		best := src[bi]
		for _, i := range [4]int{bi, bi + 1, bi + w, bi + w + 1} {
			if src[i] > best {
				best, bi = src[i], i
			}
		}
		dst[o], argmax[o] = best, base+bi
	}
}

// bnShape is one BatchNorm input shape: items of C channels of spatial
// elements.
type bnShape struct{ items, C, spatial int }

// bnShapes covers the spatial sizes of a dense input (1), VGG11's last four
// layers (4), odd tails (7, 9) and a 16×16 plane (256), channel counts that
// are and are not a multiple of the reductions' interleave, and batch 1.
func bnShapes() []bnShape {
	var shapes []bnShape
	for _, spatial := range []int{1, 4, 7, 9, 256} {
		for _, C := range []int{1, 3, 5, 8} {
			for _, items := range []int{1, 3} {
				shapes = append(shapes, bnShape{items, C, spatial})
			}
		}
	}
	return shapes
}

// bnCase holds BatchNormNormalize, or BatchNormGradIn when grad, plus the
// scalar rest to the scalar loop on one shape, with specials in every input
// (x, the mean, invStd, γ, β; gradOut, k, dβ, dγ) and in the stale output.
// The kernel covers every item.
func bnCase(g *kerneltest.Gen, s bnShape, grad bool) kerneltest.Case {
	n := s.items * s.C * s.spatial
	xd, god, stale := g.Values(n), g.Values(n), g.Values(n)
	c := [5][]float64{g.Values(s.C), g.Values(s.C), g.Values(s.C), g.Values(s.C), g.Values(s.C)}
	name := fmt.Sprintf("grad=%v %+v", grad, s)
	if grad {
		return kerneltest.Prefix(name, stale, s.items,
			func(gid []float64) int {
				return BatchNormGradIn(gid, god, xd, c[0], c[1], c[2], c[3], c[4], s.C, s.spatial)
			},
			func(gid []float64, k int) {
				bnGradInScalar(gid, god, xd, c[0], c[1], c[2], c[3], c[4], s.C, s.spatial, k)
			})
	}
	return kerneltest.Prefix(name, stale, s.items,
		func(od []float64) int { return BatchNormNormalize(od, xd, c[0], c[1], c[2], c[3], s.C, s.spatial) },
		func(od []float64, k int) { bnNormalizeScalar(od, xd, c[0], c[1], c[2], c[3], s.C, s.spatial, k) })
}

// testBatchNorm is bnCase over bnShapes.
func testBatchNorm(t *testing.T, seed int64, grad bool) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(seed, kerneltest.Payloads)
		for _, s := range bnShapes() {
			emit(bnCase(g, s, grad))
		}
	})
}

func TestBatchNormNormalizeBitIdentical(t *testing.T) { testBatchNorm(t, 211, false) }

func TestBatchNormGradInBitIdentical(t *testing.T) { testBatchNorm(t, 223, true) }

// keepPositiveCase holds KeepPositive plus the scalar rest to the scalar
// loop at length n, as the ReLU forward (sign = src) or as its backward (an
// independent sign); the kernel covers everything.
func keepPositiveCase(g *kerneltest.Gen, n int, forward bool) kerneltest.Case {
	src, sign := g.Values(n), g.Values(n)
	if forward {
		sign = src
	}
	return kerneltest.Prefix(fmt.Sprintf("n=%d forward=%v", n, forward), g.Values(n), n,
		func(dst []float64) int { return KeepPositive(dst, src, sign) },
		func(dst []float64, k int) { keepPositiveScalar(dst, src, sign, k) })
}

// poolValues returns n values drawn from a handful of small integers, +0
// and the specials, so windows hold ties (the first must win, and +0 and −0
// tie), NaNs at every tap and infinities.
func poolValues(g *kerneltest.Gen, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch g.Intn(6) {
		case 0:
			v[i] = g.Special()
		case 1:
			v[i] = 0
		default:
			v[i] = float64(g.Intn(4) - 1)
		}
	}
	return v
}

// maxPoolCase holds MaxPool2x2 plus the scalar rest to the scalar loop on
// rows of output width ow over poolValues: values and argmax indices (the
// latter with guard lanes of their own). The kernel covers every whole
// block of the widths it takes, those dividing or divided by 8.
func maxPoolCase(g *kerneltest.Gen, ow, rows, base int) kerneltest.Case {
	n := rows * ow
	src, cover := poolValues(g, 4*n), 0
	if 8%ow == 0 || ow%8 == 0 {
		cover = n &^ 7
	}
	pool := func(d [][]float64, kernel bool) ([][]float64, int) {
		arg, k := make([]int, n+8), 0
		for i := range arg {
			arg[i] = -1
		}
		if kernel {
			k = MaxPool2x2(d[0], arg[:n], src, ow, base)
		}
		maxPool2x2Scalar(d[0], arg[:n], src, ow, base, k)
		args := make([]float64, len(arg))
		for i, a := range arg {
			args[i] = float64(a)
		}
		return append(d, args), k
	}
	return kerneltest.Case{Name: fmt.Sprintf("max-pool ow=%d rows=%d", ow, rows), Dst: [][]float64{g.Values(n)}, Cover: cover,
		Ref: func(d [][]float64) [][]float64 { out, _ := pool(d, false); return out },
		Run: func(d [][]float64) ([][]float64, int) { return pool(d, true) }}
}

// TestKeepPositiveBitIdentical is keepPositiveCase at every length up to 33
// and at 1029, forward and backward.
func TestKeepPositiveBitIdentical(t *testing.T) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(227, kerneltest.Payloads)
		for _, n := range kerneltest.Lengths(33, 1029) {
			emit(keepPositiveCase(g, n, true))
			emit(keepPositiveCase(g, n, false))
		}
	})
}

// TestMaxPool2x2BitIdentical is maxPoolCase at output widths the kernel
// takes (1, 2, 4, 8, 16, 24) and ones it leaves (3, 5, 6, 12), 0 to 9 output
// rows and a base offset.
func TestMaxPool2x2BitIdentical(t *testing.T) {
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(229, kerneltest.Payloads)
		for _, ow := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 24} {
			for rows := 0; rows <= 9; rows++ {
				emit(maxPoolCase(g, ow, rows, g.Intn(100)))
			}
		}
	})
}

// TestPointwiseKernelsShortSlicePanics pins the wrappers' length checks: on
// the AVX-512 tier a slice shorter than what the kernel would touch panics
// before the kernel writes anything.
func TestPointwiseKernelsShortSlicePanics(t *testing.T) {
	const C, spatial = 3, 5
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(233, kerneltest.Payloads)
		x, coef, pooled := g.Normal(2*C*spatial), g.Normal(C), g.Normal(32)
		emit(kerneltest.Short("BatchNormNormalize into a short od", g.Normal(len(x)-1), func(dst []float64) {
			BatchNormNormalize(dst, x, coef, coef, coef, coef, C, spatial)
		}))
		emit(kerneltest.Short("BatchNormNormalize with a short β", g.Normal(len(x)), func(dst []float64) {
			BatchNormNormalize(dst, x, coef, coef, coef, coef[:C-1], C, spatial)
		}))
		emit(kerneltest.Short("BatchNormGradIn from a short gradOut", g.Normal(len(x)), func(dst []float64) {
			BatchNormGradIn(dst, x[:len(x)-1], x, coef, coef, coef, coef, coef, C, spatial)
		}))
		emit(kerneltest.Short("BatchNormGradIn with a short dγ", g.Normal(len(x)), func(dst []float64) {
			BatchNormGradIn(dst, x, x, coef, coef, coef, coef, coef[:C-1], C, spatial)
		}))
		emit(kerneltest.Short("KeepPositive with a short sign", g.Normal(len(x)), func(dst []float64) { KeepPositive(dst, x, x[:len(x)-1]) }))
		emit(kerneltest.Short("KeepPositive into a short dst", g.Normal(len(x)-1), func(dst []float64) { KeepPositive(dst, x, x) }))
		emit(kerneltest.Short("MaxPool2x2 from a short src", g.Normal(8), func(dst []float64) { MaxPool2x2(dst, make([]int, 8), pooled[:31], 4, 0) }))
		emit(kerneltest.Short("MaxPool2x2 with a short argmax", g.Normal(8), func(dst []float64) { MaxPool2x2(dst, make([]int, 7), pooled, 4, 0) }))
	})
}

// FuzzPointwise holds every pointwise kernel family to its scalar loop over
// arbitrary shapes: the BatchNorm kernels at items × C × spatial,
// KeepPositive at that length and MaxPool2x2 at widths up to 32.
func FuzzPointwise(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(3), uint8(5), uint8(4), int64(2))
	f.Add(uint8(2), uint8(7), uint8(9), int64(3))
	f.Add(uint8(1), uint8(2), uint8(255), int64(4))
	f.Fuzz(func(t *testing.T, iu, cu, su uint8, seed int64) {
		s := bnShape{int(iu%8) + 1, int(cu%16) + 1, int(su) + 1}
		g := kerneltest.NewGen(seed, kerneltest.Payloads)
		serial.Check(t, bnCase(g, s, false))
		serial.Check(t, bnCase(g, s, true))
		serial.Check(t, keepPositiveCase(g, s.items*s.C*s.spatial, false))
		serial.Check(t, maxPoolCase(g, int(cu%32)+1, s.items, int(seed&0xff)))
	})
}

// BenchmarkBatchNormNormalize times the normalize of VGG11's first and
// fifth BatchNorm at batch 64 (4 channels of 16×16, 32 channels of 2×2) on
// every tier the host runs, kernel plus scalar rest as the layer runs them.
func BenchmarkBatchNormNormalize(b *testing.B) {
	g := kerneltest.NewGen(239, nil)
	for _, s := range []bnShape{{64, 4, 256}, {64, 32, 4}} {
		n := s.items * s.C * s.spatial
		xd, od, coef := g.Normal(n), make([]float64, n), g.Normal(s.C)
		kt.Bench(b, fmt.Sprintf("C=%d/spatial=%d", s.C, s.spatial), n, "elem", func() {
			bnNormalizeScalar(od, xd, coef, coef, coef, coef, s.C, s.spatial, BatchNormNormalize(od, xd, coef, coef, coef, coef, s.C, s.spatial))
		})
	}
}

// BenchmarkKeepPositive times the ReLU over VGG11's first activation at
// batch 64 (64 × 4 × 16 × 16) on every tier the host runs.
func BenchmarkKeepPositive(b *testing.B) {
	src := kerneltest.NewGen(241, nil).Normal(64 * 4 * 256)
	dst := make([]float64, len(src))
	kt.Bench(b, "", len(src), "elem", func() { keepPositiveScalar(dst, src, src, KeepPositive(dst, src, src)) })
}

// BenchmarkMaxPool2x2 times VGG11's first and last pools at batch 64
// (4 planes of 16×16 to 8×8, 32 planes of 2×2 to 1×1) on every tier the
// host runs. Below AVX-512 it times this file's branching reference, not
// MaxPool2D's masked loop.
func BenchmarkMaxPool2x2(b *testing.B) {
	g := kerneltest.NewGen(251, nil)
	for _, s := range []struct{ planes, ow int }{{64 * 4, 8}, {64 * 32, 1}} {
		n := s.planes * s.ow * s.ow
		src, dst, arg := g.Normal(4*n), make([]float64, n), make([]int, n)
		kt.Bench(b, fmt.Sprintf("ow=%d", s.ow), n, "out", func() { maxPool2x2Scalar(dst, arg, src, s.ow, 0, MaxPool2x2(dst, arg, src, s.ow, 0)) })
	}
}
