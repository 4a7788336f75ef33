package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// conv2dCase is one geometry of the tiled-vs-whole-matrix property tests.
// special plants ±0, NaN and ±Inf in the input, the weights and gradOut.
type conv2dCase struct {
	name                      string
	inC, outC, k, stride, pad int
	batch, h, w               int
	special                   bool
}

// conv2dCases covers the edge geometries the tiles must keep bit-identical:
// borders dominated by padding, kernels at least as large as the padded
// input, 1×1 kernels, output-channel counts straddling the 8-wide SIMD tile,
// ragged last slabs (a column width that is not a multiple of 8), tile
// boundaries that cut through a batch item, every kernel 1, 3 and 5 at
// strides 1 and 2 and paddings 0, 1 and 2 on a single-item batch, and
// special values.
var conv2dCases = func() []conv2dCase {
	cases := []conv2dCase{
		{name: "vgg-like", inC: 3, outC: 5, k: 3, stride: 1, pad: 1, batch: 3, h: 9, w: 7},
		{name: "stride2", inC: 2, outC: 4, k: 3, stride: 2, pad: 1, batch: 2, h: 8, w: 8},
		{name: "kernel1x1", inC: 1, outC: 3, k: 1, stride: 1, pad: 0, batch: 2, h: 5, w: 5},
		{name: "kernel-exceeds-input", inC: 2, outC: 5, k: 5, stride: 1, pad: 2, batch: 2, h: 2, w: 2},
		{name: "kernel-covers-padded", inC: 1, outC: 2, k: 3, stride: 1, pad: 1, batch: 1, h: 1, w: 1},
		{name: "bench-shape", inC: 3, outC: 16, k: 3, stride: 1, pad: 1, batch: 4, h: 16, w: 16},
		{name: "outc-ragged", inC: 2, outC: 9, k: 3, stride: 1, pad: 1, batch: 3, h: 6, w: 5},
		{name: "even-kernel-stride2", inC: 4, outC: 7, k: 2, stride: 2, pad: 0, batch: 2, h: 7, w: 9},
		{name: "no-pad", inC: 3, outC: 6, k: 3, stride: 1, pad: 0, batch: 2, h: 7, w: 7},
		// 64·5·5 = 1600 taps: tiles of a few dozen rows cut the 25-row items.
		{name: "tile-cuts-item", inC: 64, outC: 8, k: 5, stride: 1, pad: 2, batch: 12, h: 5, w: 5},
		{name: "special-values", inC: 3, outC: 9, k: 3, stride: 1, pad: 1, batch: 2, h: 6, w: 5, special: true},
		{name: "special-tile-cuts-item", inC: 64, outC: 8, k: 5, stride: 1, pad: 2, batch: 12, h: 5, w: 5, special: true},
	}
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				cases = append(cases, conv2dCase{name: fmt.Sprintf("k%d-s%d-p%d", k, stride, pad),
					inC: 2, outC: 5, k: k, stride: stride, pad: pad, batch: 1, h: 7, w: 6})
			}
		}
	}
	return cases
}()

func (tc conv2dCase) layer() *Conv2D {
	c := NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rand.New(rand.NewSource(41)))
	if tc.special {
		plantSpecials(c.w.Data(), 45)
	}
	return c
}

func (tc conv2dCase) input() *tensor.Tensor {
	x := tensor.Randn(rand.New(rand.NewSource(42)), 0, 1, tc.batch, tc.inC, tc.h, tc.w)
	if tc.special {
		plantSpecials(x.Data(), 46)
	}
	return x
}

// gradOut returns the upstream gradient for an output of the given shape.
// A quarter of it is exact zeros, so every stage's zero-skip convention is
// exercised.
func (tc conv2dCase) gradOut(shape []int) *tensor.Tensor {
	g := tensor.Randn(rand.New(rand.NewSource(43)), 0, 1, shape...)
	gd := g.Data()
	zrng := rand.New(rand.NewSource(44))
	for i := range gd {
		if zrng.Intn(4) == 0 {
			gd[i] = 0
		}
	}
	if tc.special {
		plantSpecials(gd, 47)
	}
	return g
}

// plantSpecials overwrites about one element in eight with -0, +0, NaN,
// +Inf or -Inf. The NaN is the hardware's own (the one 0·Inf makes), so
// every NaN a kernel can produce has the same bits whichever operand an add
// propagates.
func plantSpecials(d []float64, seed int64) {
	specials := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0xfff8 << 48), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(seed))
	for i := range d {
		if rng.Intn(8) == 0 {
			d[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// convResult is one training step's outputs and gradients.
type convResult struct{ out, gw, gb, gin *tensor.Tensor }

// refConvStep is the whole-matrix formulation the tiled layer must match
// bit for bit: im2col over the whole batch, one GEMM per stage (out2d = col
// × Wmatᵀ, gw = g2dᵀ × col, gradCol = g2d × Wmat) and col2im over the whole
// batch, with the bias add and both permutes in their plain loop order.
func refConvStep(c *Conv2D, x, gradOut *tensor.Tensor) convResult {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	spatial, cw := oh*ow, c.colWidth()
	col := tensor.New(batch*spatial, cw)
	refIm2col(col, x, c.KH, c.KW, c.Stride, c.Pad, oh, ow)

	out2d := tensor.New(batch*spatial, c.OutC)
	if err := tensor.MatMulTransBInto(out2d, col, c.wMat); err != nil {
		panic(err)
	}
	out := tensor.New(batch, c.OutC, oh, ow)
	o2, od, bd := out2d.Data(), out.Data(), c.b.Data()
	for bi := 0; bi < batch; bi++ {
		for s := 0; s < spatial; s++ {
			for oc, v := range o2[(bi*spatial+s)*c.OutC:][:c.OutC] {
				od[(bi*c.OutC+oc)*spatial+s] = v + bd[oc]
			}
		}
	}

	g2d := tensor.New(batch*spatial, c.OutC)
	gd, g2 := gradOut.Data(), g2d.Data()
	for bi := 0; bi < batch; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			for s, v := range gd[(bi*c.OutC+oc)*spatial:][:spatial] {
				g2[(bi*spatial+s)*c.OutC+oc] = v
			}
		}
	}
	gb := tensor.New(c.OutC)
	gbd := gb.Data()
	for r := 0; r < batch*spatial; r++ {
		for oc, v := range g2[r*c.OutC:][:c.OutC] {
			gbd[oc] += v
		}
	}
	gw := tensor.New(c.OutC, cw)
	if err := tensor.MatMulTransAInto(gw, g2d, col); err != nil {
		panic(err)
	}
	gradCol := tensor.New(batch*spatial, cw)
	if err := tensor.MatMulInto(gradCol, g2d, c.wMat); err != nil {
		panic(err)
	}
	gin := tensor.New(batch, c.InC, h, w)
	refCol2im(gin, gradCol, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
	return convResult{out, gw, gb, gin}
}

// refIm2col unrolls the windows of x [B, C, H, W] into col [B*oh*ow,
// C*kh*kw], padding taps as explicit zeros.
func refIm2col(col, x *tensor.Tensor, kh, kw, stride, pad, oh, ow int) {
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	colWidth := ch * kh * kw
	xd, cd := x.Data(), col.Data()
	for bi := 0; bi < batch; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				rowOff := ((bi*oh+oy)*ow + ox) * colWidth
				for c := 0; c < ch; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							v := 0.0
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = xd[((bi*ch+c)*h+iy)*w+ix]
							}
							cd[rowOff+(c*kh+ky)*kw+kx] = v
						}
					}
				}
			}
		}
	}
}

// refCol2im scatters col back into the zeroed out [B, C, H, W], adding the
// contributions in (row, tap) order.
func refCol2im(out, col *tensor.Tensor, kh, kw, stride, pad, oh, ow int) {
	batch, ch, h, w := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	colWidth := ch * kh * kw
	cd, od := col.Data(), out.Data()
	for bi := 0; bi < batch; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				rowOff := ((bi*oh+oy)*ow + ox) * colWidth
				for c := 0; c < ch; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								od[((bi*ch+c)*h+iy)*w+ix] += cd[rowOff+(c*kh+ky)*kw+kx]
							}
						}
					}
				}
			}
		}
	}
}

// convTiledStep runs `steps` training Forward+Backward passes on a fresh
// layer, checking after each that an inference Forward reads the same
// output, and returns clones of the last step's results.
func convTiledStep(t *testing.T, tc conv2dCase, steps int) convResult {
	t.Helper()
	layer, x := tc.layer(), tc.input()
	var res convResult
	for s := 0; s < steps; s++ {
		out := layer.Forward(x, true).Clone()
		gin := layer.Backward(tc.gradOut(out.Shape()))
		res = convResult{out, layer.gw.Clone(), layer.gb.Clone(), gin.Clone()}
		if infer := layer.Forward(x, false); !sameBits(infer.Data(), out.Data()) {
			t.Errorf("%s step %d: inference forward diverges from training forward", tc.name, s)
		}
	}
	return res
}

// forEachConvSetup runs check on every case of conv2dCases, on every kernel
// tier and with the pool sized 1 and 3 (minimum work lowered so even the
// small cases split), with the whole-matrix reference's results and the
// tiled layer's after one and after two steps (cold and warm workspaces).
func forEachConvSetup(t *testing.T, check func(where string, got, want convResult)) {
	restorePool(t)
	parallel.SetMinWork(32)
	tensor.ForEachKernelISA(func(isa string) {
		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			for _, tc := range conv2dCases {
				layer, x := tc.layer(), tc.input()
				oh, ow := layer.OutSize(tc.h, tc.w)
				want := refConvStep(layer, x, tc.gradOut([]int{tc.batch, tc.outC, oh, ow}))
				for _, steps := range []int{1, 2} {
					check(fmt.Sprintf("%s/workers=%d/%s steps=%d", isa, workers, tc.name, steps), convTiledStep(t, tc, steps), want)
				}
			}
		}
	})
}

// TestConv2DTiledBitIdenticalIm2col is the tiled forward's correctness gate:
// for every edge geometry, tier and pool size, the output of a training and
// of an inference Forward must be bit-identical to the whole-matrix im2col +
// GEMM reference. The cases must include a tile boundary inside a batch
// item and a ragged last slab.
func TestConv2DTiledBitIdenticalIm2col(t *testing.T) {
	var cutsItem, raggedSlab bool
	for _, tc := range conv2dCases {
		layer := tc.layer()
		oh, ow := layer.OutSize(tc.h, tc.w)
		rows, spatial := layer.tileRows(), oh*ow
		cutsItem = cutsItem || (rows%spatial != 0 && rows < tc.batch*spatial)
		raggedSlab = raggedSlab || (layer.colWidth()%convLanes != 0 && layer.colWidth() > convLanes)
	}
	if !cutsItem || !raggedSlab {
		t.Fatalf("the cases miss a tile boundary inside a batch item (%v) or a ragged last slab (%v)", cutsItem, raggedSlab)
	}
	forEachConvSetup(t, func(where string, got, want convResult) {
		if !sameBits(got.out.Data(), want.out.Data()) {
			t.Errorf("%s: output diverges from the whole-matrix reference", where)
		}
	})
}

// TestConv2DDirectBitIdenticalIm2col holds the inference-only forward to
// the whole-matrix im2col + GEMM reference on every case and tier: a fresh
// layer that never ran a training Forward, called once and twice (cold and
// warm workspaces). The name dates from the removed direct inference path;
// inference now runs the same tiles as training.
func TestConv2DDirectBitIdenticalIm2col(t *testing.T) {
	tensor.ForEachKernelISA(func(isa string) {
		for _, tc := range conv2dCases {
			layer, x := tc.layer(), tc.input()
			oh, ow := layer.OutSize(tc.h, tc.w)
			want := refConvStep(layer, x, tc.gradOut([]int{tc.batch, tc.outC, oh, ow})).out
			for _, steps := range []int{1, 2} {
				layer := tc.layer()
				var got *tensor.Tensor
				for s := 0; s < steps; s++ {
					got = layer.Forward(x, false)
				}
				if !sameBits(got.Data(), want.Data()) {
					t.Errorf("%s/%s steps=%d: inference forward diverges from the whole-matrix reference", isa, tc.name, steps)
				}
			}
		}
	})
}

// TestConv2DDirectPoolParallelBitIdentical pins pool determinism over more
// worker counts than the reference gates: the inference forward and a full
// training step (tiles split by batch item, weight-gradient slabs by tap)
// must be bit-identical to the serial run for any pool size.
func TestConv2DDirectPoolParallelBitIdentical(t *testing.T) {
	restorePool(t)
	parallel.SetMinWork(32)
	tc := conv2dCase{name: "parallel", inC: 3, outC: 16, k: 3, stride: 1, pad: 1, batch: 5, h: 12, w: 10}
	x := tc.input()
	infer := func() *tensor.Tensor {
		layer := tc.layer()
		layer.Forward(x, false)
		return layer.Forward(x, false).Clone()
	}

	parallel.SetWorkers(1)
	wantInfer, want := infer(), convTiledStep(t, tc, 2)
	for _, workers := range []int{2, 4, 7} {
		parallel.SetWorkers(workers)
		if got := infer(); !sameBits(got.Data(), wantInfer.Data()) {
			t.Errorf("workers=%d: inference forward diverges from serial", workers)
		}
		got := convTiledStep(t, tc, 2)
		for _, c := range []struct {
			what      string
			got, want *tensor.Tensor
		}{{"out", got.out, want.out}, {"gw", got.gw, want.gw}, {"gb", got.gb, want.gb}, {"gradIn", got.gin, want.gin}} {
			if !sameBits(c.got.Data(), c.want.Data()) {
				t.Errorf("workers=%d: %s diverges from serial", workers, c.what)
			}
		}
	}
}

// TestConv2DFusedBackwardBitIdentical is the tiled backward's correctness
// gate: gw (one slab at a time), gb and gradIn (gradient-column tiles
// scattered straight into gradIn, the gradient-column matrix never
// materialized) must be bit-identical to the whole-matrix reference for
// every edge geometry, tier and pool size.
func TestConv2DFusedBackwardBitIdentical(t *testing.T) {
	forEachConvSetup(t, func(where string, got, want convResult) {
		for _, c := range []struct {
			what      string
			got, want *tensor.Tensor
		}{{"gw", got.gw, want.gw}, {"gb", got.gb, want.gb}, {"gradIn", got.gin, want.gin}} {
			if !sameBits(c.got.Data(), c.want.Data()) {
				t.Errorf("%s: %s diverges from the whole-matrix reference", where, c.what)
			}
		}
	})
}

// TestConv2DBackwardAfterInferencePanics pins the forward's contract: an
// inference Forward prepares no Backward, so Backward after one must panic
// instead of silently using a stale input.
func TestConv2DBackwardAfterInferencePanics(t *testing.T) {
	layer := NewConv2D(2, 4, 3, 1, 1, rand.New(rand.NewSource(3)))
	x := tensor.Randn(rand.New(rand.NewSource(4)), 0, 1, 1, 2, 5, 5)
	layer.Forward(x, true)
	out := layer.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Errorf("Backward after inference-only Forward did not panic")
		}
	}()
	layer.Backward(out)
}

// TestConv2DColumnMovesBitIdentical holds im2col (the forward's tap table
// and every weight-gradient slab) and col2im on every tier to the scalar
// tier, called directly on every case of conv2dCases with NaNs of both
// signs and distinct payloads planted in the input, the gradient columns
// and gradIn's prior contents. The layer-level gates cannot plant those:
// their values pass through GEMMs, whose NaN + NaN picks a payload by its
// own operand order.
func TestConv2DColumnMovesBitIdentical(t *testing.T) {
	payloads := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
		math.Float64frombits(0x7ff4000000000123), math.Inf(-1), math.Copysign(0, -1),
	}
	plant := func(d []float64, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		for i := range d {
			if rng.Intn(3) == 0 {
				d[i] = payloads[rng.Intn(len(payloads))]
			}
		}
		return d
	}
	for _, tc := range conv2dCases {
		layer, x := tc.layer(), tc.input()
		plant(x.Data(), 48)
		layer.Forward(x, true)
		rows, cw := layer.g.batch*layer.g.oh*layer.g.ow, layer.colWidth()
		gcol := plant(tensor.Randn(rand.New(rand.NewSource(49)), 0, 1, rows*cw).Data(), 50)
		gin0 := plant(tensor.Randn(rand.New(rand.NewSource(51)), 0, 1, x.Len()).Data(), 52)
		var want [][]float64
		tensor.ForEachKernelISA(func(isa string) {
			col := make([]float64, rows*cw)
			layer.im2col(col, layer.taps, cw, 0, rows)
			got := [][]float64{col}
			block := layer.g.oh * layer.g.ow * convLanes
			for q := 0; q < len(layer.slabTaps)/block; q++ {
				slab := make([]float64, rows*convLanes)
				layer.im2col(slab, layer.slabTaps[q*block:][:block], convLanes, 0, rows)
				got = append(got, slab)
			}
			gin := append([]float64(nil), gin0...)
			layer.col2im(gin, gcol, 0, rows)
			got = append(got, gin)
			if want == nil {
				want = got
				return
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("%s/%s: column move %d of %d diverges from the scalar tier", isa, tc.name, i, len(want))
				}
			}
		})
	}
}
