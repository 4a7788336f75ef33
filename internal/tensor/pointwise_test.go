package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bnNormalizeScalar is BatchNorm's normalize loop (bnNormalize in
// internal/nn) over every item of xd.
func bnNormalizeScalar(od, xd, mean, invStd, gd, bd []float64, C, spatial int) {
	for bi := 0; bi < len(xd)/(C*spatial); bi++ {
		for c := 0; c < C; c++ {
			x := xd[(bi*C+c)*spatial:][:spatial]
			o := od[(bi*C+c)*spatial:][:len(x)]
			m, is, g, bt := mean[c], invStd[c], gd[c], bd[c]
			for i, v := range x {
				xh := (v - m) * is
				o[i] = g*xh + bt
			}
		}
	}
}

// bnGradInScalar is BatchNorm's input-gradient loop (bnGradIn in
// internal/nn) over every item of xd.
func bnGradInScalar(gid, god, xd, mean, invStd, k, dbeta, dgamma []float64, C, spatial int) {
	for bi := 0; bi < len(xd)/(C*spatial); bi++ {
		for c := 0; c < C; c++ {
			x := xd[(bi*C+c)*spatial:][:spatial]
			g := god[(bi*C+c)*spatial:][:len(x)]
			gi := gid[(bi*C+c)*spatial:][:len(x)]
			m, is, kc, db, dg := mean[c], invStd[c], k[c], dbeta[c], dgamma[c]
			for i, v := range x {
				xh := (v - m) * is
				gi[i] = kc * (g[i] - db - xh*dg)
			}
		}
	}
}

// keepPositiveScalar is keepPositive's loop in internal/nn: src where sign
// is positive, +0 elsewhere.
func keepPositiveScalar(dst, src, sign []float64) {
	for i, s := range sign[:len(src)] {
		var m uint64
		if s > 0 {
			m = ^uint64(0)
		}
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & m)
	}
}

// maxPool2x2Scalar is MaxPool2D's forward loop in internal/nn for 2×2
// windows at stride 2 over rows of width 2·ow: the first strict maximum of
// each window in row-major tap order, and its index plus base.
func maxPool2x2Scalar(dst []float64, argmax []int, src []float64, ow, base int) {
	w := 2 * ow
	for r := 0; r < len(dst)/ow; r++ {
		for ox := 0; ox < ow; ox++ {
			bi := 2*r*w + 2*ox
			best := src[bi]
			for _, i := range [4]int{bi, bi + 1, bi + w, bi + w + 1} {
				if src[i] > best {
					best, bi = src[i], i
				}
			}
			dst[r*ow+ox], argmax[r*ow+ox] = best, base+bi
		}
	}
}

// The helpers below run a wrapper and then the scalar loop over what it
// left, as the nn layers do, and return the wrapper's prefix.

func bnNormalize(od, xd, mean, invStd, gd, bd []float64, C, spatial int) int {
	k := BatchNormNormalize(od, xd, mean, invStd, gd, bd, C, spatial)
	r := k * C * spatial
	bnNormalizeScalar(od[r:], xd[r:], mean, invStd, gd, bd, C, spatial)
	return k
}

func bnGradIn(gid, god, xd, mean, invStd, k, dbeta, dgamma []float64, C, spatial int) int {
	n := BatchNormGradIn(gid, god, xd, mean, invStd, k, dbeta, dgamma, C, spatial)
	r := n * C * spatial
	bnGradInScalar(gid[r:], god[r:], xd[r:], mean, invStd, k, dbeta, dgamma, C, spatial)
	return n
}

func keepPositive(dst, src, sign []float64) int {
	k := KeepPositive(dst, src, sign)
	keepPositiveScalar(dst[k:], src[k:], sign[k:])
	return k
}

func maxPool2x2(dst []float64, argmax []int, src []float64, ow, base int) int {
	k := MaxPool2x2(dst, argmax, src, ow, base)
	maxPool2x2Scalar(dst[k:], argmax[k:], src[4*k:], ow, base+4*k)
	return k
}

// guardLanes is how many elements past a destination's end withGuard
// fills: one vector's worth, what a store without its tail mask would reach.
const guardLanes = 8

// withGuard returns a copy of stale whose backing array runs guardLanes
// past its end, filled with a NaN payload no test value has.
func withGuard(stale []float64) []float64 {
	buf := make([]float64, len(stale)+guardLanes)
	copy(buf, stale)
	for i := len(stale); i < len(buf); i++ {
		buf[i] = math.Float64frombits(0x7ff80000deadbeef)
	}
	return buf[:len(stale)]
}

// guardIntact reports whether the elements withGuard placed past dst's end
// still hold their sentinel.
func guardIntact(dst []float64) bool {
	for _, v := range dst[len(dst):cap(dst)] {
		if math.Float64bits(v) != 0x7ff80000deadbeef {
			return false
		}
	}
	return true
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

// TestBatchNormNormalizeBitIdentical holds BatchNormNormalize plus the
// scalar rest, on every tier the host runs, to the scalar loop over
// bnShapes, with NaN payloads, ±Inf and −0 planted in x, the mean, invStd,
// γ and β and in the stale output. On the AVX-512 tier the kernel must
// cover every item, and no test writes past the end of its output.
func TestBatchNormNormalizeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	forEachTier(t, func(t *testing.T) {
		for _, s := range bnShapes() {
			n := s.items * s.C * s.spatial
			xd := tapValues(rng, n)
			mean, invStd, gd, bd := tapValues(rng, s.C), tapValues(rng, s.C), tapValues(rng, s.C), tapValues(rng, s.C)
			stale := tapValues(rng, n)
			want, got := append([]float64(nil), stale...), withGuard(stale)
			bnNormalizeScalar(want, xd, mean, invStd, gd, bd, s.C, s.spatial)
			k := bnNormalize(got, xd, mean, invStd, gd, bd, s.C, s.spatial)
			if kernelISA >= isaAVX512 && k != s.items {
				t.Fatalf("%+v: kernel covered %d items", s, k)
			}
			if !guardIntact(got) {
				t.Fatalf("%+v: wrote past the end of od", s)
			}
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%+v: od[%d] = %#x, scalar %#x (x %#x)", s, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]), math.Float64bits(xd[i]))
			}
		}
	})
}

// TestBatchNormGradInBitIdentical is the normalize test for
// BatchNormGradIn, with the specials also in gradOut, k, dβ and dγ.
func TestBatchNormGradInBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	forEachTier(t, func(t *testing.T) {
		for _, s := range bnShapes() {
			n := s.items * s.C * s.spatial
			xd, god := tapValues(rng, n), tapValues(rng, n)
			mean, invStd := tapValues(rng, s.C), tapValues(rng, s.C)
			kc, dbeta, dgamma := tapValues(rng, s.C), tapValues(rng, s.C), tapValues(rng, s.C)
			stale := tapValues(rng, n)
			want, got := append([]float64(nil), stale...), withGuard(stale)
			bnGradInScalar(want, god, xd, mean, invStd, kc, dbeta, dgamma, s.C, s.spatial)
			k := bnGradIn(got, god, xd, mean, invStd, kc, dbeta, dgamma, s.C, s.spatial)
			if kernelISA >= isaAVX512 && k != s.items {
				t.Fatalf("%+v: kernel covered %d items", s, k)
			}
			if !guardIntact(got) {
				t.Fatalf("%+v: wrote past the end of gid", s)
			}
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%+v: gid[%d] = %#x, scalar %#x", s, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestKeepPositiveBitIdentical holds KeepPositive plus the scalar rest, on
// every tier the host runs, to the scalar loop at every length up to 33 and
// at 1029: as the ReLU forward (sign = src) and as its backward (an
// independent sign), with specials in both and in the stale destination.
// On the AVX-512 tier the kernel must cover everything.
func TestKeepPositiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	lengths := []int{1029}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	forEachTier(t, func(t *testing.T) {
		for _, n := range lengths {
			src := tapValues(rng, n)
			for _, sign := range [][]float64{src, tapValues(rng, n)} {
				stale := tapValues(rng, n)
				want, got := append([]float64(nil), stale...), withGuard(stale)
				keepPositiveScalar(want, src, sign)
				k := keepPositive(got, src, sign)
				if kernelISA >= isaAVX512 && k != n {
					t.Fatalf("n=%d: kernel covered %d", n, k)
				}
				if !guardIntact(got) {
					t.Fatalf("n=%d: wrote past the end of dst", n)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d: dst[%d] = %#x, scalar %#x (src %#x, sign %#x)", n, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]),
						math.Float64bits(src[i]), math.Float64bits(sign[i]))
				}
			}
		}
	})
}

// poolValues returns n values drawn from a handful of small integers, ±0,
// ±Inf and NaN payloads, so windows hold ties (the first must win, and
// +0 and −0 tie), NaNs at every tap and infinities.
func poolValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = tapSpecials[rng.Intn(len(tapSpecials))]
		case 1:
			v[i] = 0
		default:
			v[i] = float64(rng.Intn(4) - 1)
		}
	}
	return v
}

// TestMaxPool2x2BitIdentical holds MaxPool2x2 plus the scalar rest, on
// every tier the host runs, to the scalar loop: output widths the kernel
// takes (1, 2, 4, 8, 16, 24) and ones it leaves (3, 5, 6, 12), 0 to 9
// output rows, and a base offset, over poolValues. Values and argmax
// indices must match; on the AVX-512 tier the kernel must cover every
// whole block.
func TestMaxPool2x2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	forEachTier(t, func(t *testing.T) {
		for _, ow := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 24} {
			for rows := 0; rows <= 9; rows++ {
				n, base := rows*ow, rng.Intn(100)
				src := poolValues(rng, 4*n)
				want, got := tapValues(rng, n), tapValues(rng, n)
				copy(got, want)
				wantArg, gotArg := make([]int, n), make([]int, n)
				maxPool2x2Scalar(want, wantArg, src, ow, base)
				k := maxPool2x2(got, gotArg, src, ow, base)
				wantK := 0
				if kernelISA >= isaAVX512 && (8%ow == 0 || ow%8 == 0) {
					wantK = n &^ 7
				}
				if k != wantK {
					t.Fatalf("ow=%d rows=%d: kernel covered %d outputs, want %d", ow, rows, k, wantK)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("ow=%d rows=%d: dst[%d] = %#x, scalar %#x", ow, rows, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				for i := range gotArg {
					if gotArg[i] != wantArg[i] {
						t.Fatalf("ow=%d rows=%d: argmax[%d] = %d, scalar %d", ow, rows, i, gotArg[i], wantArg[i])
					}
				}
			}
		}
	})
}

// TestPointwiseKernelsShortSlicePanics pins the wrappers' length checks: on
// the AVX-512 tier a slice shorter than what the kernel would touch panics
// before the kernel writes anything.
func TestPointwiseKernelsShortSlicePanics(t *testing.T) {
	if hostISA < isaAVX512 {
		t.Skip("no AVX-512 tier on this host")
	}
	rng := rand.New(rand.NewSource(233))
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
	const C, spatial = 3, 5
	x, coef := randSlice(rng, 2*C*spatial), randSlice(rng, C)
	dst := randSlice(rng, len(x))
	mustPanic("BatchNormNormalize into a short od", dst, func() {
		BatchNormNormalize(dst[:len(x)-1], x, coef, coef, coef, coef, C, spatial)
	})
	mustPanic("BatchNormNormalize with a short β", dst, func() {
		BatchNormNormalize(dst, x, coef, coef, coef, coef[:C-1], C, spatial)
	})
	mustPanic("BatchNormGradIn from a short gradOut", dst, func() {
		BatchNormGradIn(dst, x[:len(x)-1], x, coef, coef, coef, coef, coef, C, spatial)
	})
	mustPanic("BatchNormGradIn with a short dγ", dst, func() {
		BatchNormGradIn(dst, x, x, coef, coef, coef, coef, coef[:C-1], C, spatial)
	})
	mustPanic("KeepPositive with a short sign", dst, func() { KeepPositive(dst, x, x[:len(x)-1]) })
	mustPanic("KeepPositive into a short dst", dst, func() { KeepPositive(dst[:len(x)-1], x, x) })
	pooled := randSlice(rng, 8)
	mustPanic("MaxPool2x2 from a short src", pooled, func() { MaxPool2x2(pooled, make([]int, 8), randSlice(rng, 31), 4, 0) })
	mustPanic("MaxPool2x2 with a short argmax", pooled, func() { MaxPool2x2(pooled, make([]int, 7), randSlice(rng, 32), 4, 0) })
}

// FuzzPointwise holds every pointwise kernel plus its scalar rest to the
// scalar loop, on every tier the host runs, over arbitrary shapes: the
// BatchNorm kernels at items × C × spatial, KeepPositive at that length
// and MaxPool2x2 at widths up to 32, all over values with specials.
func FuzzPointwise(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(3), uint8(5), uint8(4), int64(2))
	f.Add(uint8(2), uint8(7), uint8(9), int64(3))
	f.Add(uint8(1), uint8(2), uint8(255), int64(4))
	f.Fuzz(func(t *testing.T, iu, cu, su uint8, seed int64) {
		items, C, spatial := int(iu%8)+1, int(cu%16)+1, int(su)+1
		rng := rand.New(rand.NewSource(seed))
		n := items * C * spatial
		xd, god := tapValues(rng, n), tapValues(rng, n)
		coef := make([][]float64, 5)
		for i := range coef {
			coef[i] = tapValues(rng, C)
		}
		ow := int(cu%32) + 1
		src := poolValues(rng, 4*items*ow)
		wantOd, wantGid, wantRelu := make([]float64, n), make([]float64, n), make([]float64, n)
		bnNormalizeScalar(wantOd, xd, coef[0], coef[1], coef[2], coef[3], C, spatial)
		bnGradInScalar(wantGid, god, xd, coef[0], coef[1], coef[2], coef[3], coef[4], C, spatial)
		keepPositiveScalar(wantRelu, god, xd)
		wantPool, wantArg := make([]float64, items*ow), make([]int, items*ow)
		maxPool2x2Scalar(wantPool, wantArg, src, ow, int(seed&0xff))
		ForEachKernelISA(func(name string) {
			od, gid, relu := make([]float64, n), make([]float64, n), make([]float64, n)
			bnNormalize(od, xd, coef[0], coef[1], coef[2], coef[3], C, spatial)
			bnGradIn(gid, god, xd, coef[0], coef[1], coef[2], coef[3], coef[4], C, spatial)
			keepPositive(relu, god, xd)
			pool, arg := make([]float64, items*ow), make([]int, items*ow)
			maxPool2x2(pool, arg, src, ow, int(seed&0xff))
			for what, pair := range map[string][2][]float64{
				"normalize": {od, wantOd}, "grad-in": {gid, wantGid}, "keep-positive": {relu, wantRelu}, "max-pool": {pool, wantPool},
			} {
				if i := firstBitDiff(pair[0], pair[1]); i >= 0 {
					t.Fatalf("%s %s: [%d] = %#x, scalar %#x", name, what, i, math.Float64bits(pair[0][i]), math.Float64bits(pair[1][i]))
				}
			}
			for i := range arg {
				if arg[i] != wantArg[i] {
					t.Fatalf("%s: argmax[%d] = %d, scalar %d", name, i, arg[i], wantArg[i])
				}
			}
		})
	})
}

// BenchmarkBatchNormNormalize times the normalize of VGG11's first and
// fifth BatchNorm at batch 64 (4 channels of 16×16, 32 channels of 2×2) on
// every tier the host runs, kernel plus scalar rest as the layer runs them.
func BenchmarkBatchNormNormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(239))
	for _, s := range []bnShape{{64, 4, 256}, {64, 32, 4}} {
		n := s.items * s.C * s.spatial
		xd, od, coef := randSlice(rng, n), make([]float64, n), randSlice(rng, s.C)
		ForEachKernelISA(func(name string) {
			b.Run(fmt.Sprintf("%s/C=%d/spatial=%d", name, s.C, s.spatial), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bnNormalize(od, xd, coef, coef, coef, coef, s.C, s.spatial)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		})
	}
}

// BenchmarkKeepPositive times the ReLU over VGG11's first activation at
// batch 64 (64 × 4 × 16 × 16) on every tier the host runs.
func BenchmarkKeepPositive(b *testing.B) {
	src := randSlice(rand.New(rand.NewSource(241)), 64*4*256)
	dst := make([]float64, len(src))
	ForEachKernelISA(func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keepPositive(dst, src, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
		})
	})
}

// BenchmarkMaxPool2x2 times VGG11's first and last pools at batch 64
// (4 planes of 16×16 to 8×8, 32 planes of 2×2 to 1×1) on every tier the
// host runs. Below AVX-512 it times this file's branching reference, not
// MaxPool2D's masked loop.
func BenchmarkMaxPool2x2(b *testing.B) {
	rng := rand.New(rand.NewSource(251))
	for _, s := range []struct{ planes, ow int }{{64 * 4, 8}, {64 * 32, 1}} {
		n := s.planes * s.ow * s.ow
		src, dst, arg := randSlice(rng, 4*n), make([]float64, n), make([]int, n)
		ForEachKernelISA(func(name string) {
			b.Run(fmt.Sprintf("%s/ow=%d", name, s.ow), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					maxPool2x2(dst, arg, src, s.ow, 0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/out")
			})
		})
	}
}
