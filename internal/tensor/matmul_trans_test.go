package tensor

import (
	"errors"
	"math/rand"
	"testing"
)

// transShapes covers the degenerate and threshold-straddling cases: single
// rows/columns, inner dimension 1, and products on either side of
// the pool split threshold (parallel.DefaultMinWork) so both the serial and parallel kernels are exercised.
var transShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{5, 1, 7},
	{7, 5, 1},
	{3, 4, 5},
	{8, 8, 8},
	{13, 17, 19},
	{32, 32, 32},  // m*k*n = 32768, below the split threshold
	{40, 41, 42},  // 68880, just above the split threshold
	{64, 64, 64},  // well above the split threshold
	{1, 300, 300}, // above threshold but m==1 forces the serial path
}

// TestMatMulTransBMatchesTranspose checks that a × bᵀ computed by the
// transpose-free kernel is bit-identical to materializing bᵀ and calling
// MatMul: the kernels preserve both the ascending accumulation order over
// the inner dimension and the zero-skip convention.
func TestMatMulTransBMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range transShapes {
		a := Randn(rng, 0, 1, s.m, s.k)
		b := Randn(rng, 0, 1, s.n, s.k)
		// Sprinkle exact zeros so the zero-skip path is hit.
		a.Data()[0] = 0
		b.Data()[len(b.Data())-1] = 0

		bt, err := Transpose2D(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MatMul(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMulTransB(a, b)
		if err != nil {
			t.Fatalf("MatMulTransB(%dx%d, %dx%d): %v", s.m, s.k, s.n, s.k, err)
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("shape %+v: TransB[%d] = %v, transpose+matmul %v",
					s, i, got.Data()[i], want.Data()[i])
			}
		}

		into := New(s.m, s.n)
		if err := MatMulTransBInto(into, a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data() {
			if into.Data()[i] != want.Data()[i] {
				t.Fatalf("shape %+v: TransBInto[%d] = %v, want %v",
					s, i, into.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestMatMulTransAMatchesTranspose is the aᵀ × b analog of the TransB test.
func TestMatMulTransAMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range transShapes {
		a := Randn(rng, 0, 1, s.k, s.m)
		b := Randn(rng, 0, 1, s.k, s.n)
		a.Data()[0] = 0
		b.Data()[len(b.Data())-1] = 0

		at, err := Transpose2D(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MatMul(at, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMulTransA(a, b)
		if err != nil {
			t.Fatalf("MatMulTransA(%dx%d, %dx%d): %v", s.k, s.m, s.k, s.n, err)
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("shape %+v: TransA[%d] = %v, transpose+matmul %v",
					s, i, got.Data()[i], want.Data()[i])
			}
		}

		into := New(s.m, s.n)
		if err := MatMulTransAInto(into, a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data() {
			if into.Data()[i] != want.Data()[i] {
				t.Fatalf("shape %+v: TransAInto[%d] = %v, want %v",
					s, i, into.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestQuickMatMulTransRandomShapes fuzzes random shapes against the
// transpose-then-multiply reference.
func TestQuickMatMulTransRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(24)
		k := 1 + rng.Intn(24)
		n := 1 + rng.Intn(24)

		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, n, k)
		bt, _ := Transpose2D(b)
		want, _ := MatMul(a, bt)
		got, err := MatMulTransB(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("trial %d (%d,%d,%d): TransB[%d] = %v, want %v",
					trial, m, k, n, i, got.Data()[i], want.Data()[i])
			}
		}

		a2 := Randn(rng, 0, 1, k, m)
		b2 := Randn(rng, 0, 1, k, n)
		at, _ := Transpose2D(a2)
		want2, _ := MatMul(at, b2)
		got2, err := MatMulTransA(a2, b2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want2.Data() {
			if got2.Data()[i] != want2.Data()[i] {
				t.Fatalf("trial %d (%d,%d,%d): TransA[%d] = %v, want %v",
					trial, m, k, n, i, got2.Data()[i], want2.Data()[i])
			}
		}
	}
}

func TestMatMulTransErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5) // inner mismatch: TransB needs b's second dim == 3
	if _, err := MatMulTransB(a, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("TransB inner mismatch err = %v", err)
	}
	if _, err := MatMulTransA(a, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("TransA inner mismatch err = %v", err)
	}
	if _, err := MatMulTransB(New(3), b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("TransB rank err = %v", err)
	}
	if err := MatMulTransBInto(New(2, 2), New(2, 3), New(4, 3)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("TransBInto out-shape err = %v", err)
	}
	if err := MatMulTransAInto(New(2, 2), New(3, 2), New(3, 4)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("TransAInto out-shape err = %v", err)
	}
}

// TestTranspose2DTiledOddShapes exercises the tiled transpose on shapes with
// remainder tiles in every combination (exact multiples, one-off, vectors).
func TestTranspose2DTiledOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := [][2]int{
		{1, 1}, {1, 65}, {65, 1}, {31, 33}, {32, 32}, {33, 31},
		{64, 64}, {65, 63}, {100, 7},
	}
	for _, s := range shapes {
		a := Randn(rng, 0, 1, s[0], s[1])
		at, err := Transpose2D(a)
		if err != nil {
			t.Fatal(err)
		}
		if at.Dim(0) != s[1] || at.Dim(1) != s[0] {
			t.Fatalf("shape %v -> %v", s, at.Shape())
		}
		for i := 0; i < s[0]; i++ {
			for j := 0; j < s[1]; j++ {
				if got, want := at.Data()[j*s[0]+i], a.Data()[i*s[1]+j]; got != want {
					t.Fatalf("%v: at(%d,%d) = %v, want %v", s, j, i, got, want)
				}
			}
		}
	}
}
