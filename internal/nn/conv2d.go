package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] inputs. Weights have shape
// [OutC, InC, KH, KW].
//
// Two execution paths share the layer, picked per shape and phase (see
// useDirect):
//
//   - im2col + GEMM: unroll windows into a column matrix, multiply against
//     the weight matrix with the blocked matmuls. Always used for training
//     forwards — the backward pass needs the column matrix for the weight
//     gradient anyway, so a direct forward would just gather every window
//     twice — and for wide layers whose weight matrix exceeds cache (the
//     blocked GEMM tiles it properly).
//   - direct: walk input windows in place, four output positions at a time,
//     and multiply each gathered window panel against the packed transposed
//     weights with the same SIMD micro kernel the blocked GEMM uses. Used
//     for inference forwards of layers whose transposed weight panel stays
//     cache-resident: the column matrix is never materialized.
//
// Backward always runs from the training forward's column matrix, but for
// budget-fitting shapes its input-gradient stage is fused: gradient-column
// rows come out of the micro kernel four positions at a time and scatter
// straight into gradIn, skipping the full gradient-column matrix round-trip.
//
// All paths produce bit-identical outputs and gradients: the gathered window
// rows carry exactly the im2col values (padding explicitly zero), and every
// accumulator sees the same operation sequence (property-tested in
// conv2d_direct_test.go).
//
// The matmuls run transpose-free against cached 2-D views of the weight and
// weight-gradient tensors, and every per-step temporary (the im2col column
// matrix, the permute staging buffers, the gradient buffers, the direct
// path's window and output panels) lives in a grow-only per-layer workspace,
// so a steady-state training step performs no allocations. Both paths
// parallelize over the batch dimension (the direct path's gradient pass over
// output channels).
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int

	w, b   *tensor.Tensor
	gw, gb *tensor.Tensor

	// wMat and gwMat are fixed 2-D [OutC, InC*KH*KW] views sharing w's and
	// gw's storage, built once so the hot path never re-reshapes.
	wMat, gwMat *tensor.Tensor

	lastCol             *tensor.Tensor
	lastDirect          bool // whether the last Forward took the direct path
	lastB, lastH, lastW int  // input geometry of the last Forward
	ws                  tensor.Workspace
}

// Conv2D workspace slots. New slots must be appended, never renumbered.
const (
	convSlotCol = iota
	convSlotOut2D
	convSlotOut
	convSlotG2D
	convSlotGradCol
	convSlotGradIn
	convSlotWT     // direct: packed Wᵀ [colWidth, OutC]
	convSlotPanelA // per-batch window (direct) / gradient-column (fused) panels
	convSlotPanelB // direct: per-batch output panels
)

// convPanelRows is the number of output positions the direct path batches per
// micro-kernel call — one register-tile row block (gemmMR).
const convPanelRows = 4

// conv2dDirectBudget caps the weight-matrix footprint (bytes) for which the
// direct inference forward and the fused input-gradient stage dispatch. Both
// stream the whole weight panel once per four output positions, so it must
// stay cache-resident; past roughly L2 size the im2col + blocked-GEMM path
// wins because it tiles the weight matrix. Default picked from
// BenchmarkConv2DDirectVsIm2col.
var conv2dDirectBudget = 64 << 10

// SetConv2DDirectBudget overrides the direct-path dispatch budget in bytes
// and returns the previous value. Values < 0 disable the direct and fused
// paths. Intended for tests and benchmarks.
func SetConv2DDirectBudget(b int) (prev int) {
	prev = conv2dDirectBudget
	conv2dDirectBudget = b
	return prev
}

// useDirect reports whether this layer's shape dispatches to the direct
// convolution paths (inference forward and fused input-gradient stage).
func (c *Conv2D) useDirect(colWidth int) bool {
	return colWidth*c.OutC*8 <= conv2dDirectBudget
}

var (
	_ Layer          = (*Conv2D)(nil)
	_ Initializer    = (*Conv2D)(nil)
	_ paramsBackward = (*Conv2D)(nil)
)

// NewConv2D returns a 2-D convolution layer with He-initialized weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC:    inC,
		OutC:   outC,
		KH:     k,
		KW:     k,
		Stride: stride,
		Pad:    pad,
		w:      tensor.New(outC, inC, k, k),
		b:      tensor.New(outC),
		gw:     tensor.New(outC, inC, k, k),
		gb:     tensor.New(outC),
	}
	c.wMat = c.w.MustReshape(outC, inC*k*k)
	c.gwMat = c.gw.MustReshape(outC, inC*k*k)
	c.ResetParams(rng)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%dx%d,%d->%d,s%d,p%d)", c.KH, c.KW, c.InC, c.OutC, c.Stride, c.Pad)
}

// InitScale implements Initializer.
func (c *Conv2D) InitScale() float64 {
	fanIn := float64(c.InC * c.KH * c.KW)
	return math.Sqrt(2.0 / fanIn)
}

// ResetParams implements Initializer.
func (c *Conv2D) ResetParams(rng *rand.Rand) {
	std := c.InitScale()
	for i, data := 0, c.w.Data(); i < len(data); i++ {
		data[i] = rng.NormFloat64() * std
	}
	c.b.Zero()
}

// cloneLayer implements layer cloning with an unshared workspace.
func (c *Conv2D) cloneLayer() Layer {
	n := &Conv2D{
		InC:    c.InC,
		OutC:   c.OutC,
		KH:     c.KH,
		KW:     c.KW,
		Stride: c.Stride,
		Pad:    c.Pad,
		w:      c.w.Clone(),
		b:      c.b.Clone(),
		gw:     c.gw.Clone(),
		gb:     c.gb.Clone(),
	}
	n.wMat = n.w.MustReshape(n.OutC, n.InC*n.KH*n.KW)
	n.gwMat = n.gw.MustReshape(n.OutC, n.InC*n.KH*n.KW)
	return n
}

// OutSize returns the spatial output size for an input of size h×w.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// Forward implements Layer. The returned tensor is a workspace buffer valid
// until the next Forward on this layer. Inference forwards (train false) of
// budget-fitting shapes take the direct path, which keeps no state for
// Backward; a training forward must precede Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v", c.Name(), x.Shape()))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s output size %dx%d for input %v", c.Name(), oh, ow, x.Shape()))
	}
	colWidth := c.InC * c.KH * c.KW
	if !train && c.useDirect(colWidth) {
		return c.forwardDirect(x, batch, h, w, oh, ow, colWidth)
	}
	col := c.ws.Get2D(convSlotCol, batch*oh*ow, colWidth)
	im2colInto(col, x, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
	c.lastCol = col
	c.lastDirect = false
	c.lastB, c.lastH, c.lastW = batch, h, w

	// out2d = col × Wmatᵀ => [B*oh*ow, OutC], without materializing Wmatᵀ.
	out2d := c.ws.Get2D(convSlotOut2D, batch*oh*ow, c.OutC)
	if err := tensor.MatMulTransBInto(out2d, col, c.wMat); err != nil {
		panic(err)
	}
	// Add bias and permute [B*oh*ow, OutC] -> [B, OutC, oh, ow].
	out := c.ws.Get4D(convSlotOut, batch, c.OutC, oh, ow)
	o2, od, bd := out2d.Data(), out.Data(), c.b.Data()
	spatial := oh * ow
	for bi := 0; bi < batch; bi++ {
		for s := 0; s < spatial; s++ {
			row := o2[(bi*spatial+s)*c.OutC : (bi*spatial+s+1)*c.OutC]
			for oc, v := range row {
				od[(bi*c.OutC+oc)*spatial+s] = v + bd[oc]
			}
		}
	}
	return out
}

// forwardDirect is the direct-convolution inference forward: per four output
// positions, gather the input windows into a contiguous panel (carrying
// exactly the im2col row values — padding explicitly zero) and multiply it
// against the packed transposed weights with the shared SIMD micro kernel.
// Each output element accumulates its colWidth products ascending with the
// zero-skip convention, then adds the bias — the identical per-element
// sequence to the im2col path's MatMulTransB + bias pass, so results are
// bit-identical.
func (c *Conv2D) forwardDirect(x *tensor.Tensor, batch, h, w, oh, ow, colWidth int) *tensor.Tensor {
	c.lastCol = nil // direct forwards keep no state; Backward needs a training Forward
	c.lastDirect = true
	spatial := oh * ow

	// Pack Wᵀ once per call so kernel lanes (output channels) read
	// contiguously: wT[p][oc] = wMat[oc][p].
	wT := c.ws.Get2D(convSlotWT, colWidth, c.OutC)
	wd, wtd := c.wMat.Data(), wT.Data()
	for oc := 0; oc < c.OutC; oc++ {
		row := wd[oc*colWidth:][:colWidth]
		for p, v := range row {
			wtd[p*c.OutC+oc] = v
		}
	}

	out := c.ws.Get4D(convSlotOut, batch, c.OutC, oh, ow)
	win := c.ws.Get2D(convSlotPanelA, batch, convPanelRows*colWidth)
	pan := c.ws.Get2D(convSlotPanelB, batch, convPanelRows*c.OutC)
	xd, od, bd := x.Data(), out.Data(), c.b.Data()
	wind, pand := win.Data(), pan.Data()
	g := parallel.Grain(spatial * colWidth * c.OutC)
	if parallel.Chunks(batch, g) <= 1 {
		c.forwardDirectRange(xd, od, bd, wtd, wind, pand, 0, batch, h, w, oh, ow, colWidth)
		return out
	}
	parallel.For(batch, g, func(lo, hi int) {
		c.forwardDirectRange(xd, od, bd, wtd, wind, pand, lo, hi, h, w, oh, ow, colWidth)
	})
	return out
}

// forwardDirectRange computes batch items [b0, b1). Panels are indexed by
// batch item, so parallel workers touch disjoint scratch.
func (c *Conv2D) forwardDirectRange(xd, od, bd, wtd, wind, pand []float64, b0, b1, h, w, oh, ow, colWidth int) {
	spatial := oh * ow
	for bi := b0; bi < b1; bi++ {
		wrow := wind[bi*convPanelRows*colWidth:][:convPanelRows*colWidth]
		prow := pand[bi*convPanelRows*c.OutC:][:convPanelRows*c.OutC]
		for s0 := 0; s0 < spatial; s0 += convPanelRows {
			rows := min(convPanelRows, spatial-s0)
			for r := 0; r < rows; r++ {
				s := s0 + r
				conv2dWindow(wrow[r*colWidth:][:colWidth], xd, bi, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, s/ow, s%ow)
			}
			tensor.GEMMPanel(prow, c.OutC, wrow, colWidth, wtd, c.OutC, rows, colWidth, c.OutC)
			for r := 0; r < rows; r++ {
				s := s0 + r
				res := prow[r*c.OutC:][:c.OutC]
				for oc, v := range res {
					od[(bi*c.OutC+oc)*spatial+s] = v + bd[oc]
				}
			}
		}
	}
}

// Backward implements Layer. The returned tensor is a workspace buffer valid
// until the next Backward on this layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, true)
}

// backwardParams implements paramsBackward.
func (c *Conv2D) backwardParams(gradOut *tensor.Tensor) { c.backward(gradOut, false) }

// backward stores the parameter gradients and, when needInput is set,
// computes and returns the input gradient (nil otherwise).
func (c *Conv2D) backward(gradOut *tensor.Tensor, needInput bool) *tensor.Tensor {
	if c.lastCol == nil {
		panic("nn: conv2d Backward before training Forward")
	}
	batch, oh, ow := gradOut.Dim(0), gradOut.Dim(2), gradOut.Dim(3)
	spatial := oh * ow
	// Permute gradOut [B, OutC, oh, ow] -> [B*oh*ow, OutC].
	g2d := c.ws.Get2D(convSlotG2D, batch*spatial, c.OutC)
	gd, g2 := gradOut.Data(), g2d.Data()
	for bi := 0; bi < batch; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := gd[(bi*c.OutC+oc)*spatial : (bi*c.OutC+oc+1)*spatial]
			for s, v := range src {
				g2[(bi*spatial+s)*c.OutC+oc] = v
			}
		}
	}
	// gb = column sums of g2d.
	c.gb.Zero()
	gbd := c.gb.Data()
	for r := 0; r < batch*spatial; r++ {
		row := g2[r*c.OutC : (r+1)*c.OutC]
		for oc, v := range row {
			gbd[oc] += v
		}
	}
	// gw = g2dᵀ × col => [OutC, InC*KH*KW], without materializing g2dᵀ.
	if err := tensor.MatMulTransAInto(c.gwMat, g2d, c.lastCol); err != nil {
		panic(err)
	}
	if !needInput {
		return nil
	}
	// gradIn = scatter(g2d × Wmat). For budget-fitting shapes the fused
	// stage runs the multiply four positions at a time straight out of g2d
	// and scatters each gradient-column row immediately — the full
	// [B*oh*ow, InC*KH*KW] gradient-column matrix never exists. Larger
	// shapes materialize it and let the blocked GEMM tile the weight
	// matrix. Per-element operation sequences are identical either way.
	colWidth := c.InC * c.KH * c.KW
	gradIn := c.ws.Get4D(convSlotGradIn, c.lastB, c.InC, c.lastH, c.lastW)
	gradIn.Zero()
	if c.useDirect(colWidth) {
		gid := gradIn.Data()
		gcol := c.ws.Get2D(convSlotPanelA, batch, convPanelRows*colWidth)
		gcold, wd := gcol.Data(), c.wMat.Data()
		gi := parallel.Grain(spatial * colWidth * c.OutC)
		if parallel.Chunks(batch, gi) <= 1 {
			c.gradInFusedRange(g2, gid, wd, gcold, 0, batch, oh, ow, colWidth)
			return gradIn
		}
		parallel.For(batch, gi, func(lo, hi int) {
			c.gradInFusedRange(g2, gid, wd, gcold, lo, hi, oh, ow, colWidth)
		})
		return gradIn
	}
	gradCol := c.ws.Get2D(convSlotGradCol, batch*spatial, colWidth)
	if err := tensor.MatMulInto(gradCol, g2d, c.wMat); err != nil {
		panic(err)
	}
	col2imInto(gradIn, gradCol, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
	return gradIn
}

// gradInFusedRange computes gradIn for batch items [b0, b1): per four output
// positions, multiply their g2d rows (already contiguous [r, OutC]) against
// the weight matrix with the shared micro kernel — oc-ascending per element
// with the zero-skip convention, exactly MatMul's sequence — and scatter the
// resulting gradient-column rows into gradIn in col2im's loop order.
func (c *Conv2D) gradInFusedRange(g2, gid, wd, gcold []float64, b0, b1, oh, ow, colWidth int) {
	h, w := c.lastH, c.lastW
	spatial := oh * ow
	for bi := b0; bi < b1; bi++ {
		gcrow := gcold[bi*convPanelRows*colWidth:][:convPanelRows*colWidth]
		for s0 := 0; s0 < spatial; s0 += convPanelRows {
			rows := min(convPanelRows, spatial-s0)
			grow := g2[(bi*spatial+s0)*c.OutC:][:rows*c.OutC]
			tensor.GEMMPanel(gcrow, colWidth, grow, c.OutC, wd, colWidth, rows, c.OutC, colWidth)
			for r := 0; r < rows; r++ {
				s := s0 + r
				conv2dScatter(gid, gcrow[r*colWidth:][:colWidth], bi, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, s/ow, s%ow)
			}
		}
	}
}

// conv2dWindow gathers one output position's input window into dst (length
// colWidth), mirroring im2colRange for a single column row: clipped taps are
// written as explicit zeros, so dst carries exactly the im2col row values.
func conv2dWindow(dst, xd []float64, bi, ch, h, w, kh, kw, stride, pad, oy, ox int) {
	iy0 := oy*stride - pad
	ix0 := ox*stride - pad
	for cc := 0; cc < ch; cc++ {
		chanOff := (bi*ch + cc) * h * w
		for ky := 0; ky < kh; ky++ {
			iy := iy0 + ky
			d := dst[(cc*kh+ky)*kw:][:kw]
			if iy < 0 || iy >= h {
				for kx := range d {
					d[kx] = 0
				}
				continue
			}
			srcRow := chanOff + iy*w
			for kx := range d {
				ix := ix0 + kx
				if ix < 0 || ix >= w {
					d[kx] = 0
					continue
				}
				d[kx] = xd[srcRow+ix]
			}
		}
	}
}

// conv2dScatter accumulates one gradient-column row into od, mirroring
// col2imRange for a single position: taps falling outside the input are
// skipped, contributions land in (c, ky, kx) ascending order.
func conv2dScatter(od, grow []float64, bi, ch, h, w, kh, kw, stride, pad, oy, ox int) {
	iy0 := oy*stride - pad
	ix0 := ox*stride - pad
	for cc := 0; cc < ch; cc++ {
		chanOff := (bi*ch + cc) * h * w
		for ky := 0; ky < kh; ky++ {
			iy := iy0 + ky
			if iy < 0 || iy >= h {
				continue
			}
			src := grow[(cc*kh+ky)*kw:][:kw]
			dstRow := chanOff + iy*w
			for kx, v := range src {
				ix := ix0 + kx
				if ix < 0 || ix >= w {
					continue
				}
				od[dstRow+ix] += v
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }

// im2colInto unrolls convolution windows of x [B, C, H, W] into col, a matrix
// of shape [B*oh*ow, C*kh*kw]. Every element of col is written (padding
// positions are explicitly zeroed), so col may hold stale workspace data on
// entry. Batch items are independent rows, so the loop fans out over the
// batch dimension on the compute pool when the volume justifies it; the
// serial decision is taken before any closure is built so small
// steady-state steps stay allocation-free.
func im2colInto(col, x *tensor.Tensor, kh, kw, stride, pad, oh, ow int) {
	batch := x.Dim(0)
	g := parallel.Grain(col.Len() / batch)
	if parallel.Chunks(batch, g) <= 1 {
		im2colRange(col, x, 0, batch, kh, kw, stride, pad, oh, ow)
		return
	}
	parallel.For(batch, g, func(lo, hi int) {
		im2colRange(col, x, lo, hi, kh, kw, stride, pad, oh, ow)
	})
}

// im2colRange unrolls batch items [b0,b1).
func im2colRange(col, x *tensor.Tensor, b0, b1, kh, kw, stride, pad, oh, ow int) {
	ch, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	colWidth := ch * kh * kw
	xd, cd := x.Data(), col.Data()
	for bi := b0; bi < b1; bi++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				rowOff := ((bi*oh+oy)*ow + ox) * colWidth
				for c := 0; c < ch; c++ {
					chanOff := (bi*ch + c) * h * w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						dst := cd[rowOff+(c*kh+ky)*kw : rowOff+(c*kh+ky)*kw+kw]
						if iy < 0 || iy >= h {
							for kx := range dst {
								dst[kx] = 0
							}
							continue
						}
						srcRow := chanOff + iy*w
						for kx := range dst {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								dst[kx] = 0
								continue
							}
							dst[kx] = xd[srcRow+ix]
						}
					}
				}
			}
		}
	}
}

// col2imInto scatters a column matrix back into out (shape [B, C, H, W]),
// accumulating overlapping contributions. It is the adjoint of im2col; out
// must be zeroed by the caller. Batch items scatter into disjoint regions of
// out, so the loop fans out over the batch dimension on the compute pool
// when the volume justifies it.
func col2imInto(out, col *tensor.Tensor, kh, kw, stride, pad, oh, ow int) {
	batch := out.Dim(0)
	g := parallel.Grain(col.Len() / batch)
	if parallel.Chunks(batch, g) <= 1 {
		col2imRange(out, col, 0, batch, kh, kw, stride, pad, oh, ow)
		return
	}
	parallel.For(batch, g, func(lo, hi int) {
		col2imRange(out, col, lo, hi, kh, kw, stride, pad, oh, ow)
	})
}

// col2imRange scatters batch items [b0,b1).
func col2imRange(out, col *tensor.Tensor, b0, b1, kh, kw, stride, pad, oh, ow int) {
	ch, h, w := out.Dim(1), out.Dim(2), out.Dim(3)
	colWidth := ch * kh * kw
	cd, od := col.Data(), out.Data()
	for bi := b0; bi < b1; bi++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				rowOff := ((bi*oh+oy)*ow + ox) * colWidth
				for c := 0; c < ch; c++ {
					chanOff := (bi*ch + c) * h * w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						src := rowOff + (c*kh+ky)*kw
						dstRow := chanOff + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							od[dstRow+ix] += cd[src+kx]
						}
					}
				}
			}
		}
	}
}
