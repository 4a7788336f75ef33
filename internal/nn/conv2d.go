package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] inputs. Weights have shape
// [OutC, InC, KH, KW].
//
// The layer is a GEMM over the im2col column matrix col [B*oh*ow,
// InC*KH*KW], whose rows are output positions and whose columns are window
// taps, but that matrix never exists at batch size: each stage gathers the
// block of it that it needs into a tile sized to stay in L2 (convTileBytes),
// multiplies the tile with the blocked matmuls and moves on. Tables built
// once per input size (setTaps) map every (position, tap) to its input
// offset or to the padding, so a gather is one branch-free lookup loop per
// batch item.
//
//   - Forward (training and inference alike): per tile of rows, out2d =
//     col × Wmatᵀ (MatMulTransB), then the bias add and the permute of the
//     tile into [B, OutC, oh, ow].
//   - Weight gradient: per slab of convLanes taps, gather that slab over
//     every position and multiply g2d (gradOut permuted to [B*oh*ow, OutC])
//     by it (MatMulTransA), so each gw element is one accumulation over all
//     positions in ascending order.
//   - Input gradient: per tile of rows, gradCol = g2d × Wmat (MatMul),
//     scattered into gradIn by col2im, tiles in ascending row order.
//
// Every output row depends on its own column row only, every gw element is
// one kernel call over all positions, and every gradIn element takes its
// contributions in ascending row order, so results are bit-identical to the
// whole-matrix formulation whatever the tile size (property-tested against
// it in conv2d_direct_test.go).
//
// Forward and input-gradient tiles split across the compute pool by batch
// item and weight-gradient slabs by tap; each range writes disjoint outputs,
// so the worker count cannot move a bit. Every per-step temporary (the
// output, the permuted gradient, the input gradient, the tap table and one
// tile workspace per pool range) is grow-only, so a steady-state training
// step performs no allocations.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int

	w, b   *tensor.Tensor
	gw, gb *tensor.Tensor

	// wMat and gwMat are fixed 2-D [OutC, InC*KH*KW] views sharing w's and
	// gw's storage, built once so the hot path never re-reshapes.
	wMat, gwMat *tensor.Tensor

	// The last Forward's input and geometry (Backward reads them when that
	// Forward trained), its tap table (setTaps), and the current pass's
	// layer-sized buffers, which the pool ranges read and write.
	lastX            *tensor.Tensor
	lastTrain        bool
	g                convGeom
	taps, slabTaps   []int
	out, g2d, gradIn *tensor.Tensor

	ws    tensor.Workspace
	tiles []*tensor.Workspace // one per pool range
}

// convGeom is the geometry of one Forward: input batch×h×w, output oh×ow.
type convGeom struct{ batch, h, w, oh, ow int }

// Conv2D workspace slots. New slots must be appended, never renumbered.
const (
	convSlotOut = iota
	convSlotG2D
	convSlotGradIn
)

// Tile workspace slots.
const (
	tileSlotCol  = iota // a gathered column block, or a gradient-column tile
	tileSlotProd        // a column block's GEMM result
	tileSlotGrad        // an input-gradient tile's rows of g2d
)

// convTileBytes is the footprint of one forward or input-gradient tile: its
// column rows plus their GEMM results. Picked from the tile-size sweep in
// EXPERIMENTS.md.
const convTileBytes = 256 << 10

// convLanes is the width of a GEMM register tile: a weight-gradient slab
// is this many taps wide, and tiles hold whole strips of this many rows.
const convLanes = 8

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

func (c *Conv2D) colWidth() int { return c.InC * c.KH * c.KW }

// tileRows is the number of column rows in one forward or input-gradient
// tile: as many whole convLanes-row strips as fit convTileBytes.
func (c *Conv2D) tileRows() int {
	n := convTileBytes / (8 * (c.colWidth() + c.OutC))
	return max(convLanes, n/convLanes*convLanes)
}

// Forward implements Layer. The returned tensor is a workspace buffer valid
// until the next Forward on this layer. Only a training Forward (train
// true) prepares a Backward; it keeps a reference to x, which must not
// change before that Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v", c.Name(), x.Shape()))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s output size %dx%d for input %v", c.Name(), oh, ow, x.Shape()))
	}
	c.lastX, c.lastTrain = x, train
	if c.g.h != h || c.g.w != w || len(c.taps) == 0 {
		c.setTaps(h, w, oh, ow)
	}
	c.g = convGeom{batch, h, w, oh, ow}
	c.out = c.ws.Get4D(convSlotOut, batch, c.OutC, oh, ow)
	c.fanOut(batch, oh*ow*c.colWidth()*c.OutC, (*Conv2D).forwardItems)
	return c.out
}

// forwardItems computes the output of batch items [b0, b1) tile by tile.
func (c *Conv2D) forwardItems(ws *tensor.Workspace, b0, b1 int) {
	spatial := c.g.oh * c.g.ow
	od, bd := c.out.Data(), c.b.Data()
	c.eachTile(ws, c.taps, c.colWidth(), b0*spatial, b1*spatial, c.tileRows(), func(col *tensor.Tensor, r0, r1 int) {
		prod := ws.Get2D(tileSlotProd, r1-r0, c.OutC)
		if err := tensor.MatMulTransBInto(prod, col, c.wMat); err != nil {
			panic(err)
		}
		pd := prod.Data()
		for r := r0; r < r1; {
			bi, s := r/spatial, r%spatial
			n := min(spatial-s, r1-r) // the tile's rows of batch item bi
			for oc, bv := range bd {
				dst, src := od[(bi*c.OutC+oc)*spatial+s:][:n], pd[(r-r0)*c.OutC+oc:]
				for j := range dst {
					dst[j] = src[j*c.OutC] + bv
				}
			}
			r += n
		}
	})
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
	if !c.lastTrain {
		panic("nn: conv2d Backward before training Forward")
	}
	g := c.g
	spatial := g.oh * g.ow
	// Permute gradOut [B, OutC, oh, ow] -> g2d [B*oh*ow, OutC], summing gb on
	// the way: each gb element takes g2d's column in ascending row order.
	c.g2d = c.ws.Get2D(convSlotG2D, g.batch*spatial, c.OutC)
	gd, g2, gbd := gradOut.Data(), c.g2d.Data(), c.gb.Data()
	c.gb.Zero()
	for bi := 0; bi < g.batch; bi++ {
		for oc := range gbd {
			src, dst := gd[(bi*c.OutC+oc)*spatial:][:spatial], g2[bi*spatial*c.OutC+oc:]
			acc := gbd[oc]
			for s, v := range src {
				dst[s*c.OutC] = v
				acc += v
			}
			gbd[oc] = acc
		}
	}
	slabs := (c.colWidth() + convLanes - 1) / convLanes
	c.fanOut(slabs, g.batch*spatial*convLanes*c.OutC, (*Conv2D).weightGradSlabs)
	if !needInput {
		return nil
	}
	c.gradIn = c.ws.Get4D(convSlotGradIn, g.batch, c.InC, g.h, g.w)
	c.fanOut(g.batch, spatial*c.colWidth()*c.OutC, (*Conv2D).inputGradItems)
	return c.gradIn
}

// weightGradSlabs computes the gw columns of slabs [q0, q1): gw[:, slab] =
// g2dᵀ × col[:, slab] over every position. A ragged last slab is gathered
// convLanes wide with zero columns past the last tap, which are dropped.
func (c *Conv2D) weightGradSlabs(ws *tensor.Workspace, q0, q1 int) {
	rows, cw, block := c.g2d.Dim(0), c.colWidth(), c.g.oh*c.g.ow*convLanes
	gw := c.gwMat.Data()
	for q := q0; q < q1; q++ {
		c.eachTile(ws, c.slabTaps[q*block:][:block], convLanes, 0, rows, rows, func(col *tensor.Tensor, _, _ int) {
			prod := ws.Get2D(tileSlotProd, c.OutC, convLanes)
			if err := tensor.MatMulTransAInto(prod, c.g2d, col); err != nil {
				panic(err)
			}
			p0 := q * convLanes
			for oc, pd := 0, prod.Data(); oc < c.OutC; oc++ {
				copy(gw[oc*cw+p0:][:min(convLanes, cw-p0)], pd[oc*convLanes:])
			}
		})
	}
}

// inputGradItems computes gradIn for batch items [b0, b1), tile by tile:
// gradCol = g2d × Wmat, scattered back by col2im in ascending row order.
func (c *Conv2D) inputGradItems(ws *tensor.Workspace, b0, b1 int) {
	g, cw := c.g, c.colWidth()
	spatial := g.oh * g.ow
	gid, g2 := c.gradIn.Data(), c.g2d.Data()
	clear(gid[b0*c.InC*g.h*g.w : b1*c.InC*g.h*g.w])
	step := c.tileRows()
	for r0 := b0 * spatial; r0 < b1*spatial; r0 += step {
		r1 := min(r0+step, b1*spatial)
		grad := ws.Get2D(tileSlotGrad, r1-r0, c.OutC)
		copy(grad.Data(), g2[r0*c.OutC:r1*c.OutC])
		gcol := ws.Get2D(tileSlotCol, r1-r0, cw)
		if err := tensor.MatMulInto(gcol, grad, c.wMat); err != nil {
			panic(err)
		}
		c.col2im(gid, gcol.Data(), r0, r1)
	}
}

// fanOut splits n items (batch items or slabs, perItem multiply-adds each)
// into contiguous ranges and runs fn on each with a tile workspace of its
// own: serially, with no closure built, when one range carries the work,
// and on the compute pool otherwise. Range boundaries depend only on n,
// perItem and the pool size.
func (c *Conv2D) fanOut(n, perItem int, fn func(*Conv2D, *tensor.Workspace, int, int)) {
	chunks := parallel.Chunks(n, parallel.Grain(perItem))
	for len(c.tiles) < max(chunks, 1) {
		c.tiles = append(c.tiles, new(tensor.Workspace))
	}
	if chunks <= 1 {
		fn(c, c.tiles[0], 0, n)
		return
	}
	per := (n + chunks - 1) / chunks
	parallel.For(chunks, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			fn(c, c.tiles[ci], min(ci*per, n), min((ci+1)*per, n))
		}
	})
}

// eachTile gathers rows [r0, r1) of one block of the last input's column
// matrix, rowStep rows at a time, into ws as a [rows, width] matrix and
// hands each tile to fn with its first row and row end. taps is the
// block's table: width entries per output position (see setTaps). It is
// the one place column values are gathered.
func (c *Conv2D) eachTile(ws *tensor.Workspace, taps []int, width, r0, r1, rowStep int, fn func(col *tensor.Tensor, r0, r1 int)) {
	for r := r0; r < r1; r += rowStep {
		re := min(r+rowStep, r1)
		col := ws.Get2D(tileSlotCol, re-r, width)
		c.im2col(col.Data(), taps, width, r, re)
		fn(col, r, re)
	}
}

// im2col writes rows [r0, r1) of a column block into dst, row-major: row r
// holds, for output position s = r%(oh*ow) of batch item r/(oh*ow), the
// input values the width taps[s*width:] point at, and +0 for padding. dst
// may hold stale data on entry.
func (c *Conv2D) im2col(dst []float64, taps []int, width, r0, r1 int) {
	g, xd := c.g, c.lastX.Data()
	spatial, item := g.oh*g.ow, c.InC*g.h*g.w
	for r := r0; r < r1; {
		bi, s := r/spatial, r%spatial
		n := min(spatial-s, r1-r) // rows of batch item bi
		xb, t, d := xd[bi*item:][:item], taps[s*width:][:n*width], dst[(r-r0)*width:][:n*width]
		for j, off := range t {
			keep := ^(off >> 63) // all ones, or zero for padding (-1)
			d[j] = math.Float64frombits(math.Float64bits(xb[off&keep]) & uint64(keep))
		}
		r += n
	}
}

// col2im accumulates the gradient-column rows [r0, r1) in gcol (all taps,
// row-major) into gid, the adjoint of im2col: padding taps are skipped, and
// contributions land in ascending (row, tap) order.
func (c *Conv2D) col2im(gid, gcol []float64, r0, r1 int) {
	g, cw := c.g, c.colWidth()
	spatial, item := g.oh*g.ow, c.InC*g.h*g.w
	bi, s := r0/spatial, r0%spatial
	for r := r0; r < r1; r++ {
		gb, taps := gid[bi*item:][:item], c.taps[s*cw:][:cw]
		for p, v := range gcol[(r-r0)*cw:][:cw] {
			if off := taps[p]; off >= 0 {
				gb[off] += v
			}
		}
		if s++; s == spatial {
			s, bi = 0, bi+1
		}
	}
}

// setTaps fills the tap tables for input h×w (output oh×ow). taps[s*colWidth
// + p] is the offset in one batch item's input [InC, h, w] that tap p
// (input channel ch at window offset (ky, kx), p = (ch*KH + ky)*KW + kx)
// reads at output position s, or -1 where it falls in the padding.
// slabTaps holds the same entries slab by slab, convLanes per position:
// slab q's entry for position s and tap q*convLanes + j sits at
// (q*oh*ow + s)*convLanes + j, and is -1 past the last tap.
func (c *Conv2D) setTaps(h, w, oh, ow int) {
	cw, kk, spatial := c.colWidth(), c.KH*c.KW, oh*ow
	slabs := (cw + convLanes - 1) / convLanes
	c.taps = slices.Grow(c.taps[:0], spatial*cw)[:spatial*cw]
	c.slabTaps = slices.Grow(c.slabTaps[:0], slabs*spatial*convLanes)[:slabs*spatial*convLanes]
	for s := 0; s < spatial; s++ {
		for p := 0; p < slabs*convLanes; p++ {
			off := -1
			if p < cw {
				iy, ix := s/ow*c.Stride-c.Pad+p%kk/c.KW, s%ow*c.Stride-c.Pad+p%c.KW
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					off = (p/kk*h+iy)*w + ix
				}
				c.taps[s*cw+p] = off
			}
			c.slabTaps[(p/convLanes*spatial+s)*convLanes+p%convLanes] = off
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }
