package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// MatMul returns a × b for 2-D tensors a (m×k) and b (k×n). The multiply is
// blocked over rows and fanned out across the process-wide compute pool
// (internal/parallel) when the output is large enough to amortize the
// scheduling cost.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: matmul %v x %v", ErrShapeMismatch, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul inner %d != %d", ErrShapeMismatch, k, k2)
	}
	out := New(m, n)
	matMulInto(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MatMulInto computes out = a × b, reusing out's storage. out must be m×n.
func MatMulInto(out, a, b *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || out.Dims() != 2 {
		return fmt.Errorf("%w: matmul-into ranks", ErrShapeMismatch)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("%w: matmul-into %v x %v -> %v", ErrShapeMismatch, a.shape, b.shape, out.shape)
	}
	matMulInto(out.data, a.data, b.data, m, k, n)
	return nil
}

// All three matmul kernels share one split policy: a chunk of output rows
// must carry at least parallel.MinWork() multiply-accumulates (each row is
// k*n of them) before the multiply fans out to the pool. The serial case is
// guarded with parallel.Chunks before any closure is built so steady-state
// small multiplies stay allocation-free.

func matMulInto(out, a, b []float64, m, k, n int) {
	if useBlockedGEMM(m, k, n) {
		gemmBlocked(out, a, b, m, k, n, false, false)
		return
	}
	g := parallel.Grain(k * n)
	if parallel.Chunks(m, g) <= 1 {
		matMulRows(out, a, b, 0, m, k, n)
		return
	}
	parallel.For(m, g, func(lo, hi int) {
		matMulRows(out, a, b, lo, hi, k, n)
	})
}

// matMulRows computes rows [lo,hi) of out = a×b using an ikj loop order that
// streams b row-wise for cache friendliness.
func matMulRows(out, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		oRow := out[i*n : (i+1)*n]
		for x := range oRow {
			oRow[x] = 0
		}
		aRow := a[i*k : (i+1)*k]
		for p, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b[p*n : (p+1)*n]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
}

// MatMulTransB returns a × bᵀ for 2-D tensors a (m×k) and b (n×k) without
// materializing the transpose of b. Because both a's rows and b's rows are
// contiguous, the kernel is a blocked batch of dot products: for each small
// tile of a's rows it streams b row-wise, reusing each b row across the tile
// while the tile's a rows stay in L1.
//
// The accumulation order over k (ascending, skipping zero a elements) is
// identical to Transpose2D(b) followed by MatMul, so results are bit-identical
// to the transpose-then-multiply formulation.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: matmul-transb %v x %v", ErrShapeMismatch, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul-transb inner %d != %d", ErrShapeMismatch, k, k2)
	}
	out := New(m, n)
	matMulTransBInto(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MatMulTransBInto computes out = a × bᵀ, reusing out's storage. a must be
// m×k, b must be n×k, and out must be m×n.
func MatMulTransBInto(out, a, b *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || out.Dims() != 2 {
		return fmt.Errorf("%w: matmul-transb-into ranks", ErrShapeMismatch)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("%w: matmul-transb-into %v x %v -> %v", ErrShapeMismatch, a.shape, b.shape, out.shape)
	}
	matMulTransBInto(out.data, a.data, b.data, m, k, n)
	return nil
}

func matMulTransBInto(out, a, b []float64, m, k, n int) {
	if useBlockedGEMM(m, k, n) {
		gemmBlocked(out, a, b, m, k, n, false, true)
		return
	}
	g := parallel.Grain(k * n)
	if parallel.Chunks(m, g) <= 1 {
		matMulTransBRows(out, a, b, 0, m, k, n)
		return
	}
	parallel.For(m, g, func(lo, hi int) {
		matMulTransBRows(out, a, b, lo, hi, k, n)
	})
}

// transBTile is the number of b rows (output columns) processed together in
// matMulTransBRows: the four dot products share one pass over the a row (one
// zero test per a element instead of four) and their accumulator chains are
// independent, so the floating-point adds pipeline instead of serializing on
// a single sum.
const transBTile = 4

func matMulTransBRows(out, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		aRow := a[i*k : (i+1)*k]
		oRow := out[i*n : (i+1)*n]
		j := 0
		for ; j+transBTile <= n; j += transBTile {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			oRow[j], oRow[j+1], oRow[j+2], oRow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bRow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s += av * bRow[p]
			}
			oRow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ × b for 2-D tensors a (k×m) and b (k×n) without
// materializing the transpose of a. The kernel walks a row-by-row (so a's
// k-major layout is streamed, not strided) and accumulates rank-1 updates
// into the output rows, reusing each b row across a tile of output rows.
//
// The accumulation order over k (ascending, skipping zero a elements) is
// identical to Transpose2D(a) followed by MatMul, so results are bit-identical
// to the transpose-then-multiply formulation.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: matmul-transa %v x %v", ErrShapeMismatch, a.shape, b.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul-transa inner %d != %d", ErrShapeMismatch, k, k2)
	}
	out := New(m, n)
	matMulTransAInto(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MatMulTransAInto computes out = aᵀ × b, reusing out's storage. a must be
// k×m, b must be k×n, and out must be m×n.
func MatMulTransAInto(out, a, b *Tensor) error {
	if a.Dims() != 2 || b.Dims() != 2 || out.Dims() != 2 {
		return fmt.Errorf("%w: matmul-transa-into ranks", ErrShapeMismatch)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("%w: matmul-transa-into %v x %v -> %v", ErrShapeMismatch, a.shape, b.shape, out.shape)
	}
	matMulTransAInto(out.data, a.data, b.data, m, k, n)
	return nil
}

func matMulTransAInto(out, a, b []float64, m, k, n int) {
	if useBlockedGEMM(m, k, n) {
		gemmBlocked(out, a, b, m, k, n, true, false)
		return
	}
	g := parallel.Grain(k * n)
	if parallel.Chunks(m, g) <= 1 {
		matMulTransACols(out, a, b, 0, m, m, k, n)
		return
	}
	parallel.For(m, g, func(lo, hi int) {
		matMulTransACols(out, a, b, lo, hi, m, k, n)
	})
}

// matMulTransACols computes output rows [lo,hi) of out = aᵀ×b (i.e. columns
// [lo,hi) of a).
func matMulTransACols(out, a, b []float64, lo, hi, m, k, n int) {
	for i := lo; i < hi; i++ {
		oRow := out[i*n : (i+1)*n]
		for x := range oRow {
			oRow[x] = 0
		}
	}
	for p := 0; p < k; p++ {
		bRow := b[p*n : (p+1)*n]
		aOff := p * m
		for i := lo; i < hi; i++ {
			av := a[aOff+i]
			if av == 0 {
				continue
			}
			oRow := out[i*n : (i+1)*n]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
}

// transposeTile is the square blocking factor of Transpose2D, sized so a
// tile of the source and a tile of the destination both fit in L1.
const transposeTile = 32

// Transpose2D returns the transpose of a 2-D tensor. The copy is blocked into
// transposeTile×transposeTile tiles so both the row-major reads and the
// column-major writes stay within cache lines; odd remainder tiles are handled
// by the min-clamped tile bounds.
func Transpose2D(t *Tensor) (*Tensor, error) {
	if t.Dims() != 2 {
		return nil, fmt.Errorf("%w: transpose %v", ErrShapeMismatch, t.shape)
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i0 := 0; i0 < m; i0 += transposeTile {
		i1 := min(i0+transposeTile, m)
		for j0 := 0; j0 < n; j0 += transposeTile {
			j1 := min(j0+transposeTile, n)
			for i := i0; i < i1; i++ {
				row := t.data[i*n : i*n+n]
				for j := j0; j < j1; j++ {
					out.data[j*m+i] = row[j]
				}
			}
		}
	}
	return out, nil
}
