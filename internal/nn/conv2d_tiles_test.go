package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kerneltest"
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

func (tc conv2dCase) layer() Layer {
	c := NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rand.New(rand.NewSource(41)))
	tc.plant(c.w, 45)
	return c
}

func (tc conv2dCase) input() *tensor.Tensor {
	return tc.plant(tensor.Randn(rand.New(rand.NewSource(42)), 0, 1, tc.batch, tc.inC, tc.h, tc.w), 46)
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
	return tc.plant(g, 47)
}

// plant overwrites about one element in eight of a special case's tensor
// with kerneltest.HardwareNaN: a GEMM's NaN + NaN keeps whichever payload its
// operand order picks, so every NaN a kernel can produce must have the same
// bits.
func (tc conv2dCase) plant(x *tensor.Tensor, seed int64) *tensor.Tensor {
	if tc.special {
		kerneltest.NewGen(seed, kerneltest.HardwareNaN).Plant(x.Data(), 8)
	}
	return x
}

// refConvStep is the whole-matrix formulation the tiled layer must match
// bit for bit: im2col over the whole batch, one GEMM per stage (out2d = col
// × Wmatᵀ, gw = g2dᵀ × col, gradCol = g2d × Wmat) and col2im over the whole
// batch, with the bias add and both permutes in their plain loop order. It
// returns what layerStep does: the output twice more for the inference
// Forwards.
func refConvStep(c *Conv2D, x, gradOut *tensor.Tensor) [][]float64 {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	spatial, cw := oh*ow, c.colWidth()
	col := tensor.New(batch*spatial, cw)
	refTaps(c, x, oh, ow, func(ci, xi int) {
		if col.Data()[ci] = 0; xi >= 0 {
			col.Data()[ci] = x.Data()[xi]
		}
	})

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
	refTaps(c, gin, oh, ow, func(ci, xi int) {
		if xi >= 0 {
			gin.Data()[xi] += gradCol.Data()[ci]
		}
	})
	return [][]float64{out.Data(), gin.Data(), gw.Data(), gb.Data(), out.Data(), out.Data()}
}

// refTaps calls f with the index into col [B*oh*ow, C*kh*kw] of every tap
// of c's windows over x [B, C, H, W] and the index into x it reads, -1 in
// the padding, in (row, tap) order.
func refTaps(c *Conv2D, x *tensor.Tensor, oh, ow int, f func(ci, xi int)) {
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	for bi := 0; bi < batch; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				rowOff := ((bi*oh+oy)*ow + ox) * ch * c.KH * c.KW
				for cc := 0; cc < ch; cc++ {
					for ky := 0; ky < c.KH; ky++ {
						for kx := 0; kx < c.KW; kx++ {
							iy, ix, xi := oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx, -1
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								xi = ((bi*ch+cc)*h+iy)*w + ix
							}
							f(rowOff+(cc*c.KH+ky)*c.KW+kx, xi)
						}
					}
				}
			}
		}
	}
}

// convRow holds the outputs of layerStep that keep names (by index: out,
// gradIn, gw, gb, the inference Forward after training, a fresh layer's
// inference Forward) to the whole-matrix reference's, on every case of
// conv2dCases after one and after two steps (cold and warm workspaces).
func convRow(t *testing.T, keep ...int) {
	t.Helper()
	pick := func(all [][]float64) [][]float64 {
		out := make([][]float64, len(keep))
		for i, k := range keep {
			out[i] = all[k]
		}
		return out
	}
	kt.Run(t, func(emit func(kerneltest.Case)) {
		for _, tc := range conv2dCases {
			x := tc.input()
			oh, ow := tc.layer().(*Conv2D).OutSize(tc.h, tc.w)
			g := tc.gradOut([]int{tc.batch, tc.outC, oh, ow})
			for steps := 1; steps <= 2; steps++ {
				emit(kerneltest.Case{Name: fmt.Sprintf("%s steps=%d", tc.name, steps),
					Ref: func([][]float64) [][]float64 { return pick(refConvStep(tc.layer().(*Conv2D), x, g)) },
					Run: func([][]float64) ([][]float64, int) { return pick(layerStep(tc.layer, x, g, steps)), -1 }})
			}
		}
	})
}

// TestConv2DTiledBitIdenticalIm2col is the tiled forward's correctness
// gate: for every edge geometry, tier and pool size, the output of a
// training Forward and of an inference Forward after it must be
// bit-identical to the whole-matrix im2col + GEMM reference. The cases must
// include a tile boundary inside a batch item and a ragged last slab.
func TestConv2DTiledBitIdenticalIm2col(t *testing.T) {
	var cutsItem, raggedSlab bool
	for _, tc := range conv2dCases {
		layer := tc.layer().(*Conv2D)
		oh, ow := layer.OutSize(tc.h, tc.w)
		rows, spatial := layer.tileRows(), oh*ow
		cutsItem = cutsItem || (rows%spatial != 0 && rows < tc.batch*spatial)
		raggedSlab = raggedSlab || (layer.colWidth()%convLanes != 0 && layer.colWidth() > convLanes)
	}
	if !cutsItem || !raggedSlab {
		t.Fatalf("the cases miss a tile boundary inside a batch item (%v) or a ragged last slab (%v)", cutsItem, raggedSlab)
	}
	convRow(t, 0, 4)
}

// TestConv2DDirectBitIdenticalIm2col holds the inference-only forward to
// the whole-matrix im2col + GEMM reference on every case, tier and pool
// size: a fresh layer that never ran a training Forward, called once and
// twice (cold and warm workspaces). The name dates from the removed direct
// inference path; inference now runs the same tiles as training.
func TestConv2DDirectBitIdenticalIm2col(t *testing.T) { convRow(t, 5) }

// TestConv2DFusedBackwardBitIdentical is the tiled backward's correctness
// gate: gradIn (gradient-column tiles scattered straight into gradIn, the
// gradient-column matrix never materialized), gw (one slab at a time) and
// gb must be bit-identical to the whole-matrix reference for every edge
// geometry, tier and pool size. The name dates from a removed path's fused
// backward; the tiled layer's is the one backward.
func TestConv2DFusedBackwardBitIdentical(t *testing.T) { convRow(t, 1, 2, 3) }

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
// tier, called directly (so at one pool size) on every case of conv2dCases with
// kerneltest.Payloads planted in the input, the gradient columns and
// gradIn's prior contents. The layer-level gates cannot plant those: their
// values pass through GEMMs, whose NaN + NaN picks a payload by its own
// operand order.
func TestConv2DColumnMovesBitIdentical(t *testing.T) {
	kt.WithPools(1).Run(t, func(emit func(kerneltest.Case)) {
		for _, tc := range conv2dCases {
			g := kerneltest.NewGen(48, kerneltest.Payloads)
			layer, x := tc.layer().(*Conv2D), tc.input()
			g.Plant(x.Data(), 3)
			layer.Forward(x, true)
			rows, cw := layer.g.batch*layer.g.oh*layer.g.ow, layer.colWidth()
			gcol := g.Plant(g.Normal(rows*cw), 3)
			emit(kerneltest.Case{Name: tc.name, Dst: [][]float64{g.Plant(g.Normal(x.Len()), 3)},
				Run: func(d [][]float64) ([][]float64, int) {
					col := make([]float64, rows*cw)
					layer.im2col(col, layer.taps, cw, 0, rows)
					got := [][]float64{col}
					block := layer.g.oh * layer.g.ow * convLanes
					for q := 0; q < len(layer.slabTaps)/block; q++ {
						slab := make([]float64, rows*convLanes)
						layer.im2col(slab, layer.slabTaps[q*block:][:block], convLanes, 0, rows)
						got = append(got, slab)
					}
					layer.col2im(d[0], gcol, 0, rows)
					return append(got, d[0]), -1
				}})
		}
	})
}
