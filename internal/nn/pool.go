package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Pooling workspace slots (shared layout across the pooling layers).
const (
	poolSlotOut = iota
	poolSlotGradIn
)

// Every pooling kernel is independent per (batch, channel) plane, so the
// loops fan out over the flattened batch*channel dimension on the compute
// pool. Chunk boundaries fall on plane boundaries, each plane's arithmetic
// order is unchanged, and planes write disjoint output regions, so parallel
// results are bit-identical to the serial loops. The serial decision is
// taken with parallel.Chunks before any closure is built so small
// steady-state steps stay allocation-free.

// scatterRange accumulates god[lo:hi) into gid at the cached argmax
// positions — the shared backward kernel of the max-pooling layers. Chunk
// ranges must align to plane boundaries: argmax targets stay inside the
// source plane, so aligned chunks never write the same element.
func scatterRange(gid, god []float64, argmax []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		gid[argmax[i]] += god[i]
	}
}

// firstMax returns (v, vi) when v > best and (best, bi) otherwise, so a
// window keeps its first strict maximum and a later NaN never wins. Both
// selects are masks: which tap of a window holds the maximum is a coin flip.
func firstMax(best float64, bi int, v float64, vi int) (float64, int) {
	var m uint64
	if v > best {
		m = ^uint64(0)
	}
	b, x := math.Float64bits(best), math.Float64bits(v)
	return math.Float64frombits(b ^ (b^x)&m), bi ^ (bi^vi)&int(m)
}

// MaxPool2D is a 2-D max pooling layer over [B, C, H, W] inputs with a square
// window and equal stride (the common VGG configuration).
type MaxPool2D struct {
	K, Stride int

	argmax    []int
	lastShape []int
	ws        tensor.Workspace
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a max-pooling layer with window k and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k, Stride: k} }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool2d(%d)", p.K) }

// cloneLayer implements layer cloning with an unshared workspace.
func (p *MaxPool2D) cloneLayer() Layer { return &MaxPool2D{K: p.K, Stride: p.Stride} }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s got input %v", p.Name(), x.Shape()))
	}
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/p.Stride, w/p.Stride
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: %s output empty for input %v", p.Name(), x.Shape()))
	}
	p.lastShape = recordShape(p.lastShape, x)
	out := p.ws.Get4D(poolSlotOut, batch, ch, oh, ow)
	n := out.Len()
	if cap(p.argmax) < n {
		p.argmax = make([]int, n)
	}
	p.argmax = p.argmax[:n]
	xd, od, argmax := x.Data(), out.Data(), p.argmax
	nbc := batch * ch
	g := parallel.Grain(oh * ow * p.K * p.K)
	if parallel.Chunks(nbc, g) <= 1 {
		p.forwardRange(xd, od, argmax, 0, nbc, h, w, oh, ow)
		return out
	}
	parallel.For(nbc, g, func(lo, hi int) {
		p.forwardRange(xd, od, argmax, lo, hi, h, w, oh, ow)
	})
	return out
}

// forwardRange pools planes [bc0,bc1), output row by output row. When 2×2
// windows at stride 2 tile the planes, tensor.MaxPool2x2 covers the rows it
// can at vector width; this loop, its reference, runs the rest.
func (p *MaxPool2D) forwardRange(xd, od []float64, argmax []int, bc0, bc1, h, w, oh, ow int) {
	r0, r1 := bc0*oh, bc1*oh
	if p.K == 2 && p.Stride == 2 && h == 2*oh && w == 2*ow {
		lo, hi := r0*ow, r1*ow
		r0 += tensor.MaxPool2x2(od[lo:hi], argmax[lo:hi], xd[bc0*h*w:bc1*h*w], ow, bc0*h*w) / ow
	}
	for r := r0; r < r1; r++ {
		bc, oy := r/oh, r%oh
		src := xd[bc*h*w : (bc+1)*h*w]
		for ox := 0; ox < ow; ox++ {
			bestIdx := oy*p.Stride*w + ox*p.Stride
			best := src[bestIdx]
			for ky := 0; ky < p.K; ky++ {
				iy := oy*p.Stride + ky
				if iy >= h {
					break
				}
				for kx := 0; kx < p.K; kx++ {
					ix := ox*p.Stride + kx
					if ix >= w {
						break
					}
					best, bestIdx = firstMax(best, bestIdx, src[iy*w+ix], iy*w+ix)
				}
			}
			oi := r*ow + ox
			od[oi] = best
			argmax[oi] = bc*h*w + bestIdx
		}
	}
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := p.ws.Get(poolSlotGradIn, p.lastShape...)
	gradIn.Zero() // the argmax scatter below accumulates
	gid, god, argmax := gradIn.Data(), gradOut.Data(), p.argmax
	nbc := p.lastShape[0] * p.lastShape[1]
	spatial := len(god) / nbc
	g := parallel.Grain(spatial)
	if parallel.Chunks(nbc, g) <= 1 {
		scatterRange(gid, god, argmax, 0, len(god))
		return gradIn
	}
	parallel.For(nbc, g, func(lo, hi int) {
		scatterRange(gid, god, argmax, lo*spatial, hi*spatial)
	})
	return gradIn
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// MaxPool1D is a 1-D max pooling layer over [B, C, L] inputs.
type MaxPool1D struct {
	K, Stride int

	argmax    []int
	lastShape []int
	ws        tensor.Workspace
}

var _ Layer = (*MaxPool1D)(nil)

// NewMaxPool1D returns a 1-D max-pooling layer with window k and stride k.
func NewMaxPool1D(k int) *MaxPool1D { return &MaxPool1D{K: k, Stride: k} }

// Name implements Layer.
func (p *MaxPool1D) Name() string { return fmt.Sprintf("maxpool1d(%d)", p.K) }

// cloneLayer implements layer cloning with an unshared workspace.
func (p *MaxPool1D) cloneLayer() Layer { return &MaxPool1D{K: p.K, Stride: p.Stride} }

// Forward implements Layer.
func (p *MaxPool1D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: %s got input %v", p.Name(), x.Shape()))
	}
	batch, ch, l := x.Dim(0), x.Dim(1), x.Dim(2)
	ol := l / p.Stride
	if ol == 0 {
		panic(fmt.Sprintf("nn: %s output empty for input %v", p.Name(), x.Shape()))
	}
	p.lastShape = recordShape(p.lastShape, x)
	out := p.ws.Get3D(poolSlotOut, batch, ch, ol)
	n := out.Len()
	if cap(p.argmax) < n {
		p.argmax = make([]int, n)
	}
	p.argmax = p.argmax[:n]
	xd, od, argmax := x.Data(), out.Data(), p.argmax
	nbc := batch * ch
	g := parallel.Grain(ol * p.K)
	if parallel.Chunks(nbc, g) <= 1 {
		p.forwardRange(xd, od, argmax, 0, nbc, l, ol)
		return out
	}
	parallel.For(nbc, g, func(lo, hi int) {
		p.forwardRange(xd, od, argmax, lo, hi, l, ol)
	})
	return out
}

// forwardRange pools planes [bc0,bc1).
func (p *MaxPool1D) forwardRange(xd, od []float64, argmax []int, bc0, bc1, l, ol int) {
	for bc := bc0; bc < bc1; bc++ {
		src := xd[bc*l : (bc+1)*l]
		for o := 0; o < ol; o++ {
			bestIdx := o * p.Stride
			best := src[bestIdx]
			for k := 1; k < p.K; k++ {
				i := o*p.Stride + k
				if i >= l {
					break
				}
				if v := src[i]; v > best {
					best, bestIdx = v, i
				}
			}
			oi := bc*ol + o
			od[oi] = best
			argmax[oi] = bc*l + bestIdx
		}
	}
}

// Backward implements Layer.
func (p *MaxPool1D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := p.ws.Get(poolSlotGradIn, p.lastShape...)
	gradIn.Zero() // the argmax scatter below accumulates
	gid, god, argmax := gradIn.Data(), gradOut.Data(), p.argmax
	nbc := p.lastShape[0] * p.lastShape[1]
	ol := len(god) / nbc
	g := parallel.Grain(ol)
	if parallel.Chunks(nbc, g) <= 1 {
		scatterRange(gid, god, argmax, 0, len(god))
		return gradIn
	}
	parallel.For(nbc, g, func(lo, hi int) {
		scatterRange(gid, god, argmax, lo*ol, hi*ol)
	})
	return gradIn
}

// Params implements Layer.
func (p *MaxPool1D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool1D) Grads() []*tensor.Tensor { return nil }

// GlobalAvgPool averages over all spatial positions, mapping [B, C, ...] to
// [B, C]. It works for both 2-D (4-D tensors) and 1-D (3-D tensors) inputs.
type GlobalAvgPool struct {
	lastShape []int
	ws        tensor.Workspace
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return "globalavgpool" }

// cloneLayer implements layer cloning with an unshared workspace.
func (p *GlobalAvgPool) cloneLayer() Layer { return NewGlobalAvgPool() }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() < 3 {
		panic(fmt.Sprintf("nn: %s got input %v", p.Name(), x.Shape()))
	}
	batch, ch := x.Dim(0), x.Dim(1)
	spatial := x.Len() / (batch * ch)
	p.lastShape = recordShape(p.lastShape, x)
	out := p.ws.Get2D(poolSlotOut, batch, ch)
	xd, od := x.Data(), out.Data()
	nbc := batch * ch
	g := parallel.Grain(spatial)
	if parallel.Chunks(nbc, g) <= 1 {
		globalAvgForwardRange(od, xd, 0, nbc, spatial)
		return out
	}
	parallel.For(nbc, g, func(lo, hi int) {
		globalAvgForwardRange(od, xd, lo, hi, spatial)
	})
	return out
}

// globalAvgForwardRange averages planes [bc0,bc1).
func globalAvgForwardRange(od, xd []float64, bc0, bc1, spatial int) {
	inv := 1.0 / float64(spatial)
	for bc := bc0; bc < bc1; bc++ {
		s := 0.0
		for _, v := range xd[bc*spatial : (bc+1)*spatial] {
			s += v
		}
		od[bc] = s * inv
	}
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := p.ws.Get(poolSlotGradIn, p.lastShape...)
	batch, ch := p.lastShape[0], p.lastShape[1]
	spatial := gradIn.Len() / (batch * ch)
	gid, god := gradIn.Data(), gradOut.Data()
	nbc := batch * ch
	g := parallel.Grain(spatial)
	if parallel.Chunks(nbc, g) <= 1 {
		globalAvgBackwardRange(gid, god, 0, nbc, spatial)
		return gradIn
	}
	parallel.For(nbc, g, func(lo, hi int) {
		globalAvgBackwardRange(gid, god, lo, hi, spatial)
	})
	return gradIn
}

// globalAvgBackwardRange broadcasts gradients into planes [bc0,bc1).
func globalAvgBackwardRange(gid, god []float64, bc0, bc1, spatial int) {
	inv := 1.0 / float64(spatial)
	for bc := bc0; bc < bc1; bc++ {
		g := god[bc] * inv
		dst := gid[bc*spatial : (bc+1)*spatial]
		for i := range dst {
			dst[i] = g
		}
	}
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }
