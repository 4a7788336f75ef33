package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Activation workspace slots (shared layout for ReLU and Tanh).
const (
	actSlotOut = iota
	actSlotGradIn
)

// The activation kernels are purely elementwise, so they fan out over the
// flat element range on the compute pool: chunk boundaries never change the
// per-element arithmetic, keeping parallel output bit-identical to the
// serial loop. The serial decision is taken with parallel.Chunks before any
// closure is built so small steady-state steps stay allocation-free.

// ReLU is the rectified-linear activation: v where v > 0, +0 otherwise
// (NaN included).
type ReLU struct {
	lastOut *tensor.Tensor
	ws      tensor.Workspace
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// cloneLayer implements layer cloning with an unshared workspace.
func (r *ReLU) cloneLayer() Layer { return NewReLU() }

// Forward implements Layer. The returned tensor is a workspace buffer valid
// until the next Forward on this layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := r.ws.GetLike(actSlotOut, x)
	data, xd := out.Data(), x.Data()
	r.lastOut = out
	g := parallel.Grain(1)
	if parallel.Chunks(len(data), g) <= 1 {
		reluRange(data, xd, xd, 0, len(data))
		return out
	}
	parallel.For(len(data), g, func(lo, hi int) {
		reluRange(data, xd, xd, lo, hi)
	})
	return out
}

// Backward implements Layer. The returned tensor is a workspace buffer valid
// until the next Backward on this layer. The forward output is positive
// exactly where the input was, so it carries the sign decisions.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.lastOut == nil {
		panic("nn: relu Backward before Forward")
	}
	grad := r.ws.GetLike(actSlotGradIn, gradOut)
	data, god, od := grad.Data(), gradOut.Data(), r.lastOut.Data()
	g := parallel.Grain(1)
	if parallel.Chunks(len(data), g) <= 1 {
		reluRange(data, god, od, 0, len(data))
		return grad
	}
	parallel.For(len(data), g, func(lo, hi int) {
		reluRange(data, god, od, lo, hi)
	})
	return grad
}

// reluRange writes dst[i] = src[i] where sign[i] > 0 and +0 elsewhere (NaN
// included) for i in [lo, hi): the ReLU forward with sign = src, its
// backward with sign = the forward output. tensor.KeepPositive covers what
// it can at vector width; this loop, its reference, runs the rest. The sign
// of a BatchNorm output is a coin flip, so the select is a mask, not a
// branch.
func reluRange(dst, src, sign []float64, lo, hi int) {
	src, sign = src[lo:hi], sign[lo:hi]
	dst = dst[lo:hi][:len(src)]
	sign = sign[:len(src)]
	for i := tensor.KeepPositive(dst, src, sign); i < len(src); i++ {
		dst[i] = keepIf(sign[i] > 0, src[i])
	}
}

// keepIf returns v when keep holds and +0 otherwise. keep becomes an
// all-ones or all-zeros mask through a conditional move, so it costs no
// branch however unpredictable it is.
func keepIf(keep bool, v float64) float64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & m)
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOut *tensor.Tensor
	ws      tensor.Workspace
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// cloneLayer implements layer cloning with an unshared workspace.
func (t *Tanh) cloneLayer() Layer { return NewTanh() }

// tanhOpCost weights math.Tanh against the one-flop unit parallel.Grain
// assumes, so the pool splits tanh loops at proportionally smaller sizes.
const tanhOpCost = 8

// Forward implements Layer. The returned tensor is a workspace buffer valid
// until the next Forward on this layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := t.ws.GetLike(actSlotOut, x)
	od, xd := out.Data(), x.Data()
	g := parallel.Grain(tanhOpCost)
	if parallel.Chunks(len(od), g) <= 1 {
		tanhForwardRange(od, xd, 0, len(od))
	} else {
		parallel.For(len(od), g, func(lo, hi int) {
			tanhForwardRange(od, xd, lo, hi)
		})
	}
	t.lastOut = out
	return out
}

func tanhForwardRange(dst, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// Backward implements Layer. The returned tensor is a workspace buffer valid
// until the next Backward on this layer.
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if t.lastOut == nil {
		panic("nn: tanh Backward before Forward")
	}
	grad := t.ws.GetLike(actSlotGradIn, gradOut)
	gd, god, od := grad.Data(), gradOut.Data(), t.lastOut.Data()
	g := parallel.Grain(1)
	if parallel.Chunks(len(gd), g) <= 1 {
		tanhBackwardRange(gd, god, od, 0, len(gd))
		return grad
	}
	parallel.For(len(gd), g, func(lo, hi int) {
		tanhBackwardRange(gd, god, od, lo, hi)
	})
	return grad
}

func tanhBackwardRange(dst, god, od []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = god[i] * (1 - od[i]*od[i])
	}
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Params implements Layer.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// Flatten reshapes [B, ...] inputs to [B, prod(...)]. It is a no-op on 2-D
// inputs. Its outputs are views of its inputs' storage, kept while the next
// call's input has the same storage and shape, so a steady-state step
// allocates nothing.
type Flatten struct {
	lastShape   []int
	out, gradIn *tensor.Tensor
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// cloneLayer implements layer cloning.
func (f *Flatten) cloneLayer() Layer { return NewFlatten() }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.lastShape = recordShape(f.lastShape, x)
	batch := x.Dim(0)
	if !isViewOf(f.out, x, batch, x.Len()/batch) {
		f.out = x.MustReshape(batch, x.Len()/batch)
	}
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !isViewOf(f.gradIn, gradOut, f.lastShape...) {
		f.gradIn = gradOut.MustReshape(f.lastShape...)
	}
	return f.gradIn
}

// isViewOf reports whether view is x's storage under shape.
func isViewOf(view, x *tensor.Tensor, shape ...int) bool {
	if view == nil || view.Len() != x.Len() || x.Len() == 0 || &view.Data()[0] != &x.Data()[0] || view.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if view.Dim(i) != d {
			return false
		}
	}
	return true
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }
