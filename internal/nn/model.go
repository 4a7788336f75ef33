package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Span describes the flat-vector location of one logical model "layer" in the
// sense the paper uses the word: a weight-bearing layer (convolution or dense)
// together with its attached normalization parameters. DINAR's per-layer
// obfuscation and the per-layer leakage analysis address layers through
// spans.
type Span struct {
	// Index is the logical layer index, starting at 0 for the first
	// weight-bearing layer.
	Index int
	// Name is the primitive layer's name.
	Name string
	// Offset is the starting position in the model's parameter vector.
	Offset int
	// Len is the number of parameters covered.
	Len int
	// InitScale is the standard deviation of the layer's weight initializer;
	// obfuscators draw replacement values from N(0, InitScale²).
	InitScale float64
	// Bypassable marks layers that sit on a residual main path: a skip
	// connection carries the signal around them, so obfuscating such a layer
	// alone does NOT disable the model (DINAR must not pick one as its
	// obfuscation target).
	Bypassable bool
}

// Model is a sequential neural network. It owns an ordered list of layers and
// provides whole-model forward/backward passes plus flat-vector parameter
// access used by federated aggregation and the defense pipeline.
type Model struct {
	layers []Layer

	prims      []Layer // flattened primitive layers (composites expanded)
	bypassable []bool  // aligned with prims: true inside residual blocks
	spans      []Span
	numParams  int
	numState   int
}

// NewModel builds a model from the given layers and precomputes its parameter
// layout.
func NewModel(layers ...Layer) *Model {
	m := &Model{layers: layers}
	m.prims, m.bypassable = flattenLayers(layers, false)
	m.buildSpans()
	return m
}

// SkipWrapped is implemented by composite layers whose sub-layers are
// bypassed by a skip connection (residual blocks).
type SkipWrapped interface {
	Composite
	// SkipWrapped marks the composite's sub-layers as bypassable.
	SkipWrapped()
}

func flattenLayers(layers []Layer, bypass bool) ([]Layer, []bool) {
	var out []Layer
	var flags []bool
	for _, l := range layers {
		if c, ok := l.(Composite); ok {
			inner := bypass
			if _, skip := l.(SkipWrapped); skip {
				inner = true
			}
			ls, fs := flattenLayers(c.Sublayers(), inner)
			out = append(out, ls...)
			flags = append(flags, fs...)
			continue
		}
		out = append(out, l)
		flags = append(flags, bypass)
	}
	return out, flags
}

// buildSpans assigns flat-vector offsets. BatchNorm parameters are merged into
// the span of the preceding weight-bearing layer, matching the paper's
// layer counting (e.g. "a neural network with 8 convolutional layers" for the
// VGG11/CelebA analysis in Fig. 4).
func (m *Model) buildSpans() {
	off := 0
	for i, l := range m.prims {
		n := numel(l.Params())
		if n == 0 {
			continue
		}
		if _, isBN := l.(*BatchNorm); isBN && len(m.spans) > 0 {
			m.spans[len(m.spans)-1].Len += n
			off += n
			continue
		}
		scale := 0.05
		if init, ok := l.(Initializer); ok {
			scale = init.InitScale()
		}
		m.spans = append(m.spans, Span{
			Index:      len(m.spans),
			Name:       l.Name(),
			Offset:     off,
			Len:        n,
			InitScale:  scale,
			Bypassable: m.bypassable[i],
		})
		off += n
	}
	m.numParams = off
	m.numState = off
	for _, l := range m.prims {
		if bn, ok := l.(*BatchNorm); ok {
			mean, variance := bn.RunningStats()
			m.numState += mean.Len() + variance.Len()
		}
	}
}

// Clone returns a deep copy of the model: parameters, gradients, and
// normalization running statistics are copied; layer workspaces and forward
// caches start fresh, so the clone can train concurrently with the original.
func (m *Model) Clone() *Model {
	layers := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		c, ok := l.(cloneable)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s does not support cloning", l.Name()))
		}
		layers[i] = c.cloneLayer()
	}
	return NewModel(layers...)
}

// Layers returns the model's top-level layers.
func (m *Model) Layers() []Layer { return m.layers }

// Spans returns the model's logical layer spans (one per weight-bearing
// layer). The returned slice is shared; callers must not modify it.
func (m *Model) Spans() []Span { return m.spans }

// NumLayers returns the number of logical (weight-bearing) layers.
func (m *Model) NumLayers() int { return len(m.spans) }

// NumParams returns the total number of trainable parameters.
func (m *Model) NumParams() int { return m.numParams }

// NumState returns the length of the full state vector (parameters plus
// normalization running statistics).
func (m *Model) NumState() int { return m.numState }

// Forward runs a full forward pass.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs a full backward pass from the loss gradient with respect to
// the model output, populating parameter gradients.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad = m.layers[i].Backward(grad)
	}
	return grad
}

// paramsBackward is implemented by layers that can store their parameter
// gradients without computing the gradient with respect to their input.
type paramsBackward interface {
	backwardParams(gradOut *tensor.Tensor)
}

// BackwardParams is Backward for callers that read only the parameter
// gradients (every training loop): the gradient with respect to the model
// input is not returned, so a first layer that can skip computing it does.
// The parameter gradients are bit-identical to Backward's.
func (m *Model) BackwardParams(grad *tensor.Tensor) {
	if len(m.layers) == 0 {
		return
	}
	for i := len(m.layers) - 1; i >= 1; i-- {
		grad = m.layers[i].Backward(grad)
	}
	if first, ok := m.layers[0].(paramsBackward); ok {
		first.backwardParams(grad)
		return
	}
	m.layers[0].Backward(grad)
}

// Params returns all trainable parameter tensors in span order.
func (m *Model) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.prims {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradient tensors aligned with Params.
func (m *Model) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range m.prims {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// buffers returns non-trainable state tensors (BatchNorm running statistics).
func (m *Model) buffers() []*tensor.Tensor {
	var bs []*tensor.Tensor
	for _, l := range m.prims {
		if bn, ok := l.(*BatchNorm); ok {
			mean, variance := bn.RunningStats()
			bs = append(bs, mean, variance)
		}
	}
	return bs
}

// ParamVector returns a copy of all trainable parameters as a flat vector in
// span order.
func (m *Model) ParamVector() []float64 {
	out := make([]float64, 0, m.numParams)
	for _, p := range m.Params() {
		out = append(out, p.Data()...)
	}
	return out
}

// SetParamVector loads trainable parameters from a flat vector.
func (m *Model) SetParamVector(vec []float64) error {
	if len(vec) != m.numParams {
		return fmt.Errorf("nn: param vector length %d, model has %d", len(vec), m.numParams)
	}
	off := 0
	for _, p := range m.Params() {
		copy(p.Data(), vec[off:off+p.Len()])
		off += p.Len()
	}
	return nil
}

// GradVector returns a copy of all parameter gradients as a flat vector
// aligned with ParamVector.
func (m *Model) GradVector() []float64 {
	out := make([]float64, 0, m.numParams)
	for _, g := range m.Grads() {
		out = append(out, g.Data()...)
	}
	return out
}

// StateVector returns a copy of the full model state: parameters followed by
// normalization running statistics. This is what FL clients exchange with the
// server, so that evaluation-mode behaviour transfers too.
func (m *Model) StateVector() []float64 {
	return m.AppendStateVector(make([]float64, 0, m.numState))
}

// AppendStateVector appends the full model state to dst and returns the
// extended slice: a caller that uploads every round passes the same buffer,
// cut to length 0, and allocates nothing once its capacity is NumState.
func (m *Model) AppendStateVector(dst []float64) []float64 {
	for _, p := range m.Params() {
		dst = append(dst, p.Data()...)
	}
	for _, b := range m.buffers() {
		dst = append(dst, b.Data()...)
	}
	return dst
}

// SetStateVector loads the full model state from a flat vector produced by
// StateVector.
func (m *Model) SetStateVector(vec []float64) error {
	if len(vec) != m.numState {
		return fmt.Errorf("nn: state vector length %d, model has %d", len(vec), m.numState)
	}
	off := 0
	for _, p := range m.Params() {
		copy(p.Data(), vec[off:off+p.Len()])
		off += p.Len()
	}
	for _, b := range m.buffers() {
		copy(b.Data(), vec[off:off+b.Len()])
		off += b.Len()
	}
	return nil
}

// LayerGradVectors splits the current gradients by logical layer span,
// returning one flat gradient slice per layer. Used by the per-layer leakage
// analysis (§3).
func (m *Model) LayerGradVectors() [][]float64 {
	flat := m.GradVector()
	out := make([][]float64, len(m.spans))
	for i, s := range m.spans {
		out[i] = flat[s.Offset : s.Offset+s.Len]
	}
	return out
}

// ZeroGrads clears all parameter gradients.
func (m *Model) ZeroGrads() {
	for _, g := range m.Grads() {
		g.Zero()
	}
}

// Describe returns a one-line-per-layer architecture summary.
func (m *Model) Describe() string {
	s := ""
	for i, sp := range m.spans {
		s += fmt.Sprintf("layer %d: %s (%d params at %d)\n", i, sp.Name, sp.Len, sp.Offset)
	}
	return s + fmt.Sprintf("total: %d params, %d state", m.numParams, m.numState)
}
