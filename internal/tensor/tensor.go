// Package tensor implements a small dense n-dimensional tensor engine used by
// the neural-network substrate. Tensors store float64 data in row-major order.
//
// The package is deliberately minimal: it provides exactly the operations the
// DINAR reproduction needs (element-wise arithmetic, matrix multiplication,
// reductions, and seeded random initialization) with no external dependencies.
package tensor

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// ErrShapeMismatch is returned when an operation receives tensors whose shapes
// are incompatible.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major n-dimensional array of float64.
//
// The zero value is an empty tensor. Tensors own their backing slice; use
// Clone to copy and View-style helpers are intentionally not provided to keep
// aliasing rules simple.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice returns a tensor with the given shape whose data is copied from
// values. It returns an error if len(values) does not match the shape volume.
func FromSlice(values []float64, shape ...int) (*Tensor, error) {
	t := New(shape...)
	if len(values) != len(t.data) {
		return nil, fmt.Errorf("%w: %d values for shape %v", ErrShapeMismatch, len(values), shape)
	}
	copy(t.data, values)
	return t, nil
}

// MustFromSlice is FromSlice but panics on error. Intended for tests and
// static initialization.
func MustFromSlice(values []float64, shape ...int) *Tensor {
	t, err := FromSlice(values, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full returns a tensor with the given shape where every element is v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor with the given shape filled with samples from a
// normal distribution with the given mean and standard deviation.
func Randn(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64()*std + mean
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the tensor's backing slice. Mutating the returned slice mutates
// the tensor; callers that need isolation must Clone first.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. It returns an
// error if the shape volume differs from the tensor length.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v -> %v", ErrShapeMismatch, t.shape, shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape but panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// Zero sets all elements to zero in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// AddInPlace adds o to t element-wise, in place.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: add %v + %v", ErrShapeMismatch, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// AXPY computes t += alpha*o element-wise, in place.
func (t *Tensor) AXPY(alpha float64, o *Tensor) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: axpy %v += a*%v", ErrShapeMismatch, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
	return nil
}

// Row returns a copy of row i of a 2-D tensor.
func (t *Tensor) Row(i int) ([]float64, error) {
	if len(t.shape) != 2 {
		return nil, fmt.Errorf("%w: Row on %v", ErrShapeMismatch, t.shape)
	}
	cols := t.shape[1]
	out := make([]float64, cols)
	copy(out, t.data[i*cols:(i+1)*cols])
	return out, nil
}

// String renders a compact description, e.g. "Tensor(2x3)[...]".
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor(")
	for i, d := range t.shape {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(d))
	}
	b.WriteByte(')')
	const preview = 6
	b.WriteByte('[')
	for i, v := range t.data {
		if i == preview {
			b.WriteString("...")
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
	}
	b.WriteByte(']')
	return b.String()
}
