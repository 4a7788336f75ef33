package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv1D is a 1-D convolution over [B, C, L] inputs (used by the M18 audio
// model). Weights have shape [OutC, InC, K].
//
// Its loops are scalar and run on the calling goroutine, and its output and
// input-gradient tensors live in a grow-only per-layer workspace, so a
// steady-state training step performs no allocations at any pool size.
type Conv1D struct {
	InC, OutC   int
	K           int
	Stride, Pad int

	w, b   *tensor.Tensor
	gw, gb *tensor.Tensor

	lastX *tensor.Tensor
	ws    tensor.Workspace
}

// Conv1D workspace slots.
const (
	conv1dSlotOut = iota
	conv1dSlotGradIn
)

var (
	_ Layer       = (*Conv1D)(nil)
	_ Initializer = (*Conv1D)(nil)
)

// NewConv1D returns a 1-D convolution layer with He-initialized weights.
func NewConv1D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv1D {
	c := &Conv1D{
		InC:    inC,
		OutC:   outC,
		K:      k,
		Stride: stride,
		Pad:    pad,
		w:      tensor.New(outC, inC, k),
		b:      tensor.New(outC),
		gw:     tensor.New(outC, inC, k),
		gb:     tensor.New(outC),
	}
	c.ResetParams(rng)
	return c
}

// Name implements Layer.
func (c *Conv1D) Name() string {
	return fmt.Sprintf("conv1d(%d,%d->%d,s%d,p%d)", c.K, c.InC, c.OutC, c.Stride, c.Pad)
}

// InitScale implements Initializer.
func (c *Conv1D) InitScale() float64 {
	return math.Sqrt(2.0 / float64(c.InC*c.K))
}

// ResetParams implements Initializer.
func (c *Conv1D) ResetParams(rng *rand.Rand) {
	std := c.InitScale()
	for i, data := 0, c.w.Data(); i < len(data); i++ {
		data[i] = rng.NormFloat64() * std
	}
	c.b.Zero()
}

// cloneLayer implements layer cloning with an unshared workspace.
func (c *Conv1D) cloneLayer() Layer {
	return &Conv1D{
		InC:    c.InC,
		OutC:   c.OutC,
		K:      c.K,
		Stride: c.Stride,
		Pad:    c.Pad,
		w:      c.w.Clone(),
		b:      c.b.Clone(),
		gw:     c.gw.Clone(),
		gb:     c.gb.Clone(),
	}
}

// OutLen returns the output length for an input of length l.
func (c *Conv1D) OutLen(l int) int { return (l+2*c.Pad-c.K)/c.Stride + 1 }

// interior returns the [lo, hi) range of output positions whose receptive
// field lies fully inside an input of length l: for o in that range the
// window [o*Stride-Pad, o*Stride-Pad+K) needs no clipping, so the inner
// loops can drop their per-tap bounds tests. hi is 0 when the kernel is
// longer than the padded input ever allows (K > l+Pad).
func (c *Conv1D) interior(l, ol int) (lo, hi int) {
	if num := l - c.K + c.Pad; num >= 0 {
		hi = num/c.Stride + 1
	}
	if hi > ol {
		hi = ol
	}
	if c.Pad > 0 {
		lo = (c.Pad + c.Stride - 1) / c.Stride
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Forward implements Layer.
func (c *Conv1D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v", c.Name(), x.Shape()))
	}
	batch, l := x.Dim(0), x.Dim(2)
	ol := c.OutLen(l)
	if ol <= 0 {
		panic(fmt.Sprintf("nn: %s output length %d for input %v", c.Name(), ol, x.Shape()))
	}
	c.lastX = x
	out := c.ws.Get3D(conv1dSlotOut, batch, c.OutC, ol)
	xd, od, wd, bd := x.Data(), out.Data(), c.w.Data(), c.b.Data()
	oLo, oHi := c.interior(l, ol)
	// The channel loop sits outside the position loop so the source row and
	// weight row are sliced once per (oc, ic) instead of once per tap group.
	// Each output element still accumulates bias first, then ic-ascending,
	// k-ascending products — the same sequence as the per-element loop this
	// replaces, so results are bit-identical.
	for bi := 0; bi < batch; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			dst := od[(bi*c.OutC+oc)*ol:][:ol]
			bias := bd[oc]
			for o := range dst {
				dst[o] = bias
			}
			for ic := 0; ic < c.InC; ic++ {
				src := xd[(bi*c.InC+ic)*l:][:l]
				wRow := wd[(oc*c.InC+ic)*c.K:][:c.K]
				for o := 0; o < oLo; o++ { // left border: window clipped below 0
					i0 := o*c.Stride - c.Pad
					s := dst[o]
					for k, wv := range wRow {
						if i := i0 + k; i >= 0 && i < l {
							s += wv * src[i]
						}
					}
					dst[o] = s
				}
				for o := oLo; o < oHi; o++ { // interior: no clipping, no bounds checks
					window := src[o*c.Stride-c.Pad:][:len(wRow)]
					s := dst[o]
					for k, wv := range wRow {
						s += wv * window[k]
					}
					dst[o] = s
				}
				for o := oHi; o < ol; o++ { // right border: window clipped at l
					i0 := o*c.Stride - c.Pad
					s := dst[o]
					for k, wv := range wRow {
						if i := i0 + k; i >= 0 && i < l {
							s += wv * src[i]
						}
					}
					dst[o] = s
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv1D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastX == nil {
		panic("nn: conv1d Backward before Forward")
	}
	batch, l := c.lastX.Dim(0), c.lastX.Dim(2)
	ol := gradOut.Dim(2)
	c.gw.Zero()
	c.gb.Zero()
	gradIn := c.ws.Get3D(conv1dSlotGradIn, batch, c.InC, l)
	gradIn.Zero() // the scatter below accumulates
	xd, gd := c.lastX.Data(), gradOut.Data()
	gid, gwd, gbd, wd := gradIn.Data(), c.gw.Data(), c.gb.Data(), c.w.Data()
	oLo, oHi := c.interior(l, ol)
	// Same restructuring as Forward: channels outside positions so the four
	// row slices hoist out of the tap loop, with a clip-free interior range.
	// Every accumulator (gb per oc; gw per tap; gradIn per input element)
	// still receives its contributions in the original order — gb over
	// (bi, o) ascending, gw over (bi, o) ascending, gradIn over (oc, o, k)
	// ascending — so gradients are bit-identical.
	for bi := 0; bi < batch; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			gRow := gd[(bi*c.OutC+oc)*ol:][:ol]
			for _, g := range gRow {
				if g == 0 {
					continue
				}
				gbd[oc] += g
			}
			for ic := 0; ic < c.InC; ic++ {
				src := xd[(bi*c.InC+ic)*l:][:l]
				giRow := gid[(bi*c.InC+ic)*l:][:l]
				wRow := wd[(oc*c.InC+ic)*c.K:][:c.K]
				gwRow := gwd[(oc*c.InC+ic)*c.K:][:len(wRow)]
				for o := 0; o < oLo; o++ { // left border
					g := gRow[o]
					if g == 0 {
						continue
					}
					i0 := o*c.Stride - c.Pad
					for k, wv := range wRow {
						if i := i0 + k; i >= 0 && i < l {
							gwRow[k] += g * src[i]
							giRow[i] += g * wv
						}
					}
				}
				for o := oLo; o < oHi; o++ { // interior: no clipping, no bounds checks
					g := gRow[o]
					if g == 0 {
						continue
					}
					i0 := o*c.Stride - c.Pad
					window := src[i0:][:len(wRow)]
					giWin := giRow[i0:][:len(wRow)]
					for k, wv := range wRow {
						gwRow[k] += g * window[k]
						giWin[k] += g * wv
					}
				}
				for o := oHi; o < ol; o++ { // right border
					g := gRow[o]
					if g == 0 {
						continue
					}
					i0 := o*c.Stride - c.Pad
					for k, wv := range wRow {
						if i := i0 + k; i >= 0 && i < l {
							gwRow[k] += g * src[i]
							giRow[i] += g * wv
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv1D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv1D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }
