package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3)
	if tt.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tt.Len())
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len = %d, want 1", s.Len())
	}
	if s.Dims() != 0 {
		t.Fatalf("scalar Dims = %d, want 0", s.Dims())
	}
}

func TestFromSlice(t *testing.T) {
	tt, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if got := tt.At(0, 1); got != 2 {
		t.Fatalf("At(0,1) = %v, want 2", got)
	}
}

func TestFromSliceShapeMismatch(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("err = %v, want ErrShapeMismatch", err)
	}
}

func TestSetAt(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := tt.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("flat offset = %v, want 7.5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone aliases the original data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b, err := a.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	b.Set(99, 3)
	if a.At(1, 1) != 99 {
		t.Fatal("Reshape should share backing data")
	}
	if _, err := a.Reshape(3); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad reshape err = %v", err)
	}
}

func TestArithmeticInPlace(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{10, 20, 30}, 3)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, w := range want {
		if a.At(i) != w {
			t.Fatalf("add[%d] = %v, want %v", i, a.At(i), w)
		}
	}
	if err := a.SubInPlace(b); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{1, 2, 3} {
		if a.At(i) != w {
			t.Fatalf("sub[%d] = %v, want %v", i, a.At(i), w)
		}
	}
	if err := a.MulInPlace(b); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{10, 40, 90} {
		if a.At(i) != w {
			t.Fatalf("mul[%d] = %v, want %v", i, a.At(i), w)
		}
	}
}

func TestArithmeticShapeErrors(t *testing.T) {
	a := New(3)
	b := New(4)
	if err := a.AddInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AddInPlace err = %v", err)
	}
	if err := a.SubInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("SubInPlace err = %v", err)
	}
	if err := a.MulInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("MulInPlace err = %v", err)
	}
	if err := a.AXPY(1, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AXPY err = %v", err)
	}
}

func TestScaleAXPYApply(t *testing.T) {
	a := MustFromSlice([]float64{1, -2, 3}, 3)
	a.Scale(2)
	if a.At(1) != -4 {
		t.Fatalf("Scale: got %v", a.At(1))
	}
	b := MustFromSlice([]float64{1, 1, 1}, 3)
	if err := a.AXPY(0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 2.5 {
		t.Fatalf("AXPY: got %v", a.At(0))
	}
	a.Apply(math.Abs)
	if a.At(1) != 3.5 {
		t.Fatalf("Apply: got %v", a.At(1))
	}
}

func TestReductions(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 4)
	if a.Sum() != 10 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 2.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if got, want := a.Variance(), 1.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got, want := a.Norm(), math.Sqrt(30); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm = %v, want %v", got, want)
	}
	if a.ArgMax() != 3 {
		t.Fatalf("ArgMax = %d", a.ArgMax())
	}
	neg := MustFromSlice([]float64{-5, 2}, 2)
	if neg.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v", neg.MaxAbs())
	}
}

func TestEmptyReductions(t *testing.T) {
	e := New(0)
	if e.Mean() != 0 || e.Variance() != 0 || e.MaxAbs() != 0 {
		t.Fatal("empty tensor reductions should be zero")
	}
	if e.ArgMax() != -1 {
		t.Fatalf("empty ArgMax = %d, want -1", e.ArgMax())
	}
}

func TestRowOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row, err := a.Row(1)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	// Row returns a copy.
	row[0] = 99
	if a.At(1, 0) != 4 {
		t.Fatal("Row should return a copy")
	}
	if err := a.SetRow(0, []float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 2) != 9 {
		t.Fatalf("SetRow failed: %v", a.At(0, 2))
	}
	if err := a.SetRow(0, []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("SetRow bad len err = %v", err)
	}
	v := New(3)
	if _, err := v.Row(0); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Row on 1-D err = %v", err)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("inner mismatch err = %v", err)
	}
	if _, err := MatMul(New(3), b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("rank err = %v", err)
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 0, 1, 7, 5)
	b := Randn(rng, 0, 1, 5, 9)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := New(7, 9)
	out.Fill(3.14) // ensure stale contents are overwritten
	if err := MatMulInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data() {
		if math.Abs(out.Data()[i]-want.Data()[i]) > 1e-12 {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, out.Data()[i], want.Data()[i])
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Large enough to trip the parallel path.
	a := Randn(rng, 0, 1, 64, 64)
	b := Randn(rng, 0, 1, 64, 64)
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := New(64, 64)
	matMulRows(want.Data(), a.Data(), b.Data(), 0, 64, 64, 64)
	for i := range want.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-9 {
			t.Fatalf("parallel[%d] = %v, serial %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := Transpose2D(a)
	if err != nil {
		t.Fatal(err)
	}
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at.Data())
	}
	if _, err := Transpose2D(New(3)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("rank err = %v", err)
	}
}

func TestRandnStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tt := Randn(rng, 2, 3, 10000)
	if m := tt.Mean(); math.Abs(m-2) > 0.1 {
		t.Fatalf("Randn mean = %v, want ~2", m)
	}
	if v := tt.Variance(); math.Abs(v-9) > 0.5 {
		t.Fatalf("Randn variance = %v, want ~9", v)
	}
}

func TestStringPreview(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4)
	s := a.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	if want := "Tensor(2x4)"; len(s) < len(want) || s[:len(want)] != want {
		t.Fatalf("String = %q", s)
	}
}

// Property: (A+B)+C == A+(B+C) element-wise up to float tolerance.
func TestQuickAddAssociative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 1
			}
			// Clamp to keep float error bounded.
			raw[i] = math.Mod(raw[i], 1e6)
		}
		n := len(raw)
		a := MustFromSlice(raw, n)
		b := a.Clone()
		b.Scale(0.5)
		c := a.Clone()
		c.Scale(-0.25)

		ab, _ := Add(a, b)
		left, _ := Add(ab, c)
		bc, _ := Add(b, c)
		right, _ := Add(a, bc)
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		c := Randn(rng, 0, 1, k, n)
		bc, _ := Add(b, c)
		left, _ := MatMul(a, bc)
		ab, _ := MatMul(a, b)
		ac, _ := MatMul(a, c)
		right, _ := Add(ab, ac)
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 0, 1, m, n)
		at, _ := Transpose2D(a)
		att, _ := Transpose2D(at)
		if !a.SameShape(att) {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i] != att.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("equal shapes reported unequal")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("unequal shapes reported equal")
	}
	if New(6).SameShape(New(2, 3)) {
		t.Fatal("different ranks reported equal")
	}
}
