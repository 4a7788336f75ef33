package tensor

// Workspace is grow-only scratch storage for per-call temporaries. A holder
// (typically a neural-network layer) owns one Workspace and addresses its
// scratch tensors by small integer slots; Get reshapes the slot's tensor in
// place, reallocating its backing array only when the requested volume
// exceeds the current capacity. In steady state — repeated calls with the
// same shapes — a Workspace performs no allocations at all.
//
// Returned tensors are valid until the next Get on the same slot. Their
// contents are unspecified (they hold whatever the previous use left); the
// caller must fully overwrite the data or call Zero first.
//
// A Workspace must not be shared across goroutines. The zero value is ready
// to use, and a copied Workspace must not be used (the copy would alias the
// original's buffers); holders that need a duplicate start from a fresh zero
// Workspace.
type Workspace struct {
	slots []*Tensor
}

// Get returns the slot's scratch tensor shaped to shape, growing backing
// storage if needed. The tensor's contents are unspecified.
func (w *Workspace) Get(slot int, shape ...int) *Tensor {
	t := w.slot(slot)
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative workspace dimension")
		}
		n *= d
	}
	w.reshape(t, n, shape)
	return t
}

// Get2D returns the slot's scratch tensor shaped to [d0, d1].
func (w *Workspace) Get2D(slot, d0, d1 int) *Tensor {
	t := w.slot(slot)
	w.reshape1(t, d0*d1, d0, d1)
	return t
}

// Get3D returns the slot's scratch tensor shaped to [d0, d1, d2].
func (w *Workspace) Get3D(slot, d0, d1, d2 int) *Tensor {
	t := w.slot(slot)
	w.reshape1(t, d0*d1*d2, d0, d1, d2)
	return t
}

// Get4D returns the slot's scratch tensor shaped to [d0, d1, d2, d3].
func (w *Workspace) Get4D(slot, d0, d1, d2, d3 int) *Tensor {
	t := w.slot(slot)
	w.reshape1(t, d0*d1*d2*d3, d0, d1, d2, d3)
	return t
}

// GetLike returns the slot's scratch tensor shaped like ref.
func (w *Workspace) GetLike(slot int, ref *Tensor) *Tensor {
	t := w.slot(slot)
	w.reshape(t, len(ref.data), ref.shape)
	return t
}

// slot returns the slot's tensor, creating empty tensors up to slot on first
// use (the only allocations a Workspace ever amortizes away).
func (w *Workspace) slot(slot int) *Tensor {
	for slot >= len(w.slots) {
		w.slots = append(w.slots, &Tensor{})
	}
	return w.slots[slot]
}

// reshape points t at an n-element view of its (possibly grown) backing array
// with the given dims, reusing the shape slice in place.
func (w *Workspace) reshape(t *Tensor, n int, dims []int) {
	if cap(t.data) < n {
		t.data = make([]float64, n)
	}
	t.data = t.data[:n]
	if cap(t.shape) < len(dims) {
		t.shape = make([]int, len(dims))
	}
	t.shape = t.shape[:len(dims)]
	copy(t.shape, dims)
}

// reshape1 is reshape for fixed-arity callers; the variadic dims slice stays
// on the caller's stack because it never escapes.
func (w *Workspace) reshape1(t *Tensor, n int, dims ...int) {
	for _, d := range dims {
		if d < 0 {
			panic("tensor: negative workspace dimension")
		}
	}
	w.reshape(t, n, dims)
}
