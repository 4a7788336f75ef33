package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Activation selects the optional activation fused into a Dense layer's
// forward pass.
type Activation int

// Fusable dense activations.
const (
	ActNone Activation = iota
	ActReLU
	ActTanh
)

// String returns the activation's short name.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	default:
		return "none"
	}
}

// Dense is a fully connected layer: y = act(xWᵀ + b) with W of shape
// [out, in] and act one of identity, ReLU, or Tanh.
//
// The forward and backward passes are transpose-free (MatMulTransB /
// MatMulTransA against W directly) and write into per-layer workspace
// tensors, so a steady-state training step performs no allocations. When an
// activation is fused, the bias add and the activation run in one pass over
// the output tile instead of a separate layer re-traversing the tensor; the
// per-element operation sequence (GEMM result + bias, then the activation)
// is exactly the Dense→ReLU/Tanh composition's, so fused results are
// bit-identical to the unfused stack.
type Dense struct {
	In, Out int
	Act     Activation

	w, b   *tensor.Tensor
	gw, gb *tensor.Tensor

	lastX *tensor.Tensor
	// lastOut retains the activated forward output for the Tanh gradient
	// (dtanh = 1 - out²); mask retains the ReLU sign decisions.
	lastOut *tensor.Tensor
	mask    []bool
	ws      tensor.Workspace
}

// Dense workspace slots.
const (
	denseSlotOut = iota
	denseSlotGradIn
	denseSlotGradAct
)

var (
	_ Layer          = (*Dense)(nil)
	_ Initializer    = (*Dense)(nil)
	_ paramsBackward = (*Dense)(nil)
)

// NewDense returns a dense layer with He-initialized weights and no fused
// activation.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	return NewDenseAct(in, out, ActNone, rng)
}

// NewDenseAct returns a dense layer with He-initialized weights and the given
// activation fused into its forward pass. It draws exactly the same values
// from rng as NewDense, and the fused layer spans the same parameters, so
// swapping a NewDense+NewReLU/NewTanh pair for NewDenseAct leaves a model's
// seeded initialization and logical layer numbering unchanged.
func NewDenseAct(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		Act: act,
		w:   tensor.New(out, in),
		b:   tensor.New(out),
		gw:  tensor.New(out, in),
		gb:  tensor.New(out),
	}
	d.ResetParams(rng)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string {
	if d.Act == ActNone {
		return fmt.Sprintf("dense(%d->%d)", d.In, d.Out)
	}
	return fmt.Sprintf("dense(%d->%d)+%s", d.In, d.Out, d.Act)
}

// InitScale implements Initializer.
func (d *Dense) InitScale() float64 { return math.Sqrt(2.0 / float64(d.In)) }

// ResetParams implements Initializer.
func (d *Dense) ResetParams(rng *rand.Rand) {
	std := d.InitScale()
	for i, data := 0, d.w.Data(); i < len(data); i++ {
		data[i] = rng.NormFloat64() * std
	}
	d.b.Zero()
}

// cloneLayer implements layer cloning: parameters are deep-copied, the
// workspace starts fresh so the clone never aliases this layer's scratch.
func (d *Dense) cloneLayer() Layer {
	return &Dense{
		In:  d.In,
		Out: d.Out,
		Act: d.Act,
		w:   d.w.Clone(),
		b:   d.b.Clone(),
		gw:  d.gw.Clone(),
		gb:  d.gb.Clone(),
	}
}

// Forward implements Layer. x has shape [B, In]. The returned tensor is a
// workspace buffer valid until the next Forward on this layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: dense %s got input %v", d.Name(), x.Shape()))
	}
	d.lastX = x
	batch := x.Dim(0)
	// out = x × Wᵀ, without materializing Wᵀ.
	out := d.ws.Get2D(denseSlotOut, batch, d.Out)
	if err := tensor.MatMulTransBInto(out, x, d.w); err != nil {
		panic(err)
	}
	od, bd := out.Data(), d.b.Data()
	if d.Act == ActReLU {
		if cap(d.mask) < len(od) {
			d.mask = make([]bool, len(od))
		}
		d.mask = d.mask[:len(od)]
	}
	// Bias and activation in one pass. Rows are independent and every
	// element's operation sequence is fixed, so the pool split over rows is
	// bit-identical to the serial loop (and to the unfused two-layer stack).
	cost := d.Out
	if d.Act == ActTanh {
		cost *= tanhOpCost
	}
	g := parallel.Grain(cost)
	if parallel.Chunks(batch, g) <= 1 {
		d.biasActRange(od, bd, 0, batch)
	} else {
		parallel.For(batch, g, func(lo, hi int) {
			d.biasActRange(od, bd, lo, hi)
		})
	}
	if d.Act == ActTanh {
		d.lastOut = out
	}
	return out
}

// biasActRange applies bias and the fused activation to output rows
// [lo, hi). Per element this performs exactly the composition's operations:
// one add, then the activation's compare-or-tanh.
func (d *Dense) biasActRange(od, bd []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := od[i*d.Out : (i+1)*d.Out]
		switch d.Act {
		case ActReLU:
			mrow := d.mask[i*d.Out : (i+1)*d.Out]
			for j, v := range row {
				if v += bd[j]; v > 0 {
					row[j] = v
					mrow[j] = true
				} else {
					row[j] = 0
					mrow[j] = false
				}
			}
		case ActTanh:
			for j, v := range row {
				row[j] = math.Tanh(v + bd[j])
			}
		default:
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
}

// Backward implements Layer. The returned tensor is a workspace buffer valid
// until the next Backward on this layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return d.backward(gradOut, true)
}

// backwardParams implements paramsBackward.
func (d *Dense) backwardParams(gradOut *tensor.Tensor) { d.backward(gradOut, false) }

// backward stores the parameter gradients and, when needInput is set,
// computes and returns the input gradient (nil otherwise).
func (d *Dense) backward(gradOut *tensor.Tensor, needInput bool) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: dense Backward before Forward")
	}
	batch := gradOut.Dim(0)
	// Fused activations first map gradOut through the activation gradient —
	// the same elementwise kernels the standalone layers run — then the
	// unchanged dense backward consumes the result.
	if d.Act != ActNone {
		ga := d.ws.Get2D(denseSlotGradAct, batch, d.Out)
		gad, god := ga.Data(), gradOut.Data()
		g := parallel.Grain(1)
		if parallel.Chunks(len(gad), g) <= 1 {
			d.actGradRange(gad, god, 0, len(gad))
		} else {
			parallel.For(len(gad), g, func(lo, hi int) {
				d.actGradRange(gad, god, lo, hi)
			})
		}
		gradOut = ga
	}
	// gw = gradOutᵀ × x => [Out, In], without materializing gradOutᵀ.
	if err := tensor.MatMulTransAInto(d.gw, gradOut, d.lastX); err != nil {
		panic(err)
	}
	// gb = column sums of gradOut.
	d.gb.Zero()
	god, gbd := gradOut.Data(), d.gb.Data()
	for i := 0; i < batch; i++ {
		row := god[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			gbd[j] += v
		}
	}
	if !needInput {
		return nil
	}
	// gradIn = gradOut × W => [B, In]
	gradIn := d.ws.Get2D(denseSlotGradIn, batch, d.In)
	if err := tensor.MatMulInto(gradIn, gradOut, d.w); err != nil {
		panic(err)
	}
	return gradIn
}

// actGradRange maps upstream gradients through the fused activation's
// derivative for flat elements [lo, hi).
func (d *Dense) actGradRange(dst, god []float64, lo, hi int) {
	switch d.Act {
	case ActReLU:
		reluBackwardRange(dst, god, d.mask, lo, hi)
	case ActTanh:
		tanhBackwardRange(dst, god, d.lastOut.Data(), lo, hi)
	}
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.w, d.b} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gw, d.gb} }
