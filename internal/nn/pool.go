package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Pooling workspace slots (shared layout across the pooling layers).
const (
	poolSlotOut = iota
	poolSlotGradIn
)

// scatterArgmax accumulates god into gid at the cached argmax positions —
// the shared backward kernel of the max-pooling layers.
func scatterArgmax(gid, god []float64, argmax []int) {
	argmax = argmax[:len(god)]
	for i, g := range god {
		gid[argmax[i]] += g
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
	p.pool(x.Data(), out.Data(), p.argmax, batch*ch, h, w, oh, ow)
	return out
}

// pool pools all nbc planes, output row by output row. When 2×2 windows at
// stride 2 tile the planes, tensor.MaxPool2x2 covers the rows it can at
// vector width; this loop, its reference, runs the rest.
func (p *MaxPool2D) pool(xd, od []float64, argmax []int, nbc, h, w, oh, ow int) {
	r0, r1 := 0, nbc*oh
	if p.K == 2 && p.Stride == 2 && h == 2*oh && w == 2*ow {
		r0 = tensor.MaxPool2x2(od, argmax, xd[:nbc*h*w], ow, 0) / ow
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
	scatterArgmax(gradIn.Data(), gradOut.Data(), p.argmax)
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
	p.pool(x.Data(), out.Data(), p.argmax, batch*ch, l, ol)
	return out
}

// pool pools all nbc planes.
func (p *MaxPool1D) pool(xd, od []float64, argmax []int, nbc, l, ol int) {
	for bc := 0; bc < nbc; bc++ {
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
	scatterArgmax(gradIn.Data(), gradOut.Data(), p.argmax)
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
	inv := 1.0 / float64(spatial)
	for bc := range od {
		s := 0.0
		for _, v := range xd[bc*spatial : (bc+1)*spatial] {
			s += v
		}
		od[bc] = s * inv
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := p.ws.Get(poolSlotGradIn, p.lastShape...)
	batch, ch := p.lastShape[0], p.lastShape[1]
	spatial := gradIn.Len() / (batch * ch)
	gid := gradIn.Data()
	inv := 1.0 / float64(spatial)
	for bc, g := range gradOut.Data()[:batch*ch] {
		g *= inv
		dst := gid[bc*spatial : (bc+1)*spatial]
		for i := range dst {
			dst[i] = g
		}
	}
	return gradIn
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }
