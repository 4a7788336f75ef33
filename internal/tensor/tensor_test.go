package tensor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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
	if got := tt.Data()[1*3+2]; got != 6 {
		t.Fatalf("element (1,2) = %v, want 6", got)
	}
	if got := tt.Data()[0*3+1]; got != 2 {
		t.Fatalf("element (0,1) = %v, want 2", got)
	}
}

func TestFromSliceShapeMismatch(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("err = %v, want ErrShapeMismatch", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data()[0] = 9
	if a.Data()[0] != 1 {
		t.Fatal("Clone aliases the original data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b, err := a.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	b.Data()[3] = 99
	if a.Data()[1*2+1] != 99 {
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
		if a.Data()[i] != w {
			t.Fatalf("add[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
}

// TestScaleAXPYApply keeps its name from when Tensor also had Scale and
// Apply; AXPY is the one of the three that remains.
func TestScaleAXPYApply(t *testing.T) {
	a := MustFromSlice([]float64{2, -4, 6}, 3)
	b := MustFromSlice([]float64{1, 1, 1}, 3)
	if err := a.AXPY(0.5, b); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{2.5, -3.5, 6.5} {
		if a.Data()[i] != w {
			t.Fatalf("axpy[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
	if err := a.AXPY(-2, b); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{0.5, -5.5, 4.5} {
		if a.Data()[i] != w {
			t.Fatalf("axpy(-2)[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
}

func TestArithmeticShapeErrors(t *testing.T) {
	a := New(3)
	b := New(4)
	if err := a.AddInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AddInPlace err = %v", err)
	}
	if err := a.AXPY(1, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AXPY err = %v", err)
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
	if a.Data()[1*3+0] != 4 {
		t.Fatal("Row should return a copy")
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
	for i := range out.Data() {
		out.Data()[i] = 3.14 // ensure stale contents are overwritten
	}
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
	if at.Data()[2*2+1] != 6 || at.Data()[0*2+1] != 4 {
		t.Fatalf("transpose values wrong: %v", at.Data())
	}
	if _, err := Transpose2D(New(3)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("rank err = %v", err)
	}
}

func TestRandnStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tt := Randn(rng, 2, 3, 10000)
	m := 0.0
	for _, x := range tt.Data() {
		m += x / float64(tt.Len())
	}
	if math.Abs(m-2) > 0.1 {
		t.Fatalf("Randn mean = %v, want ~2", m)
	}
	v := 0.0
	for _, x := range tt.Data() {
		v += (x - m) * (x - m)
	}
	if v /= float64(tt.Len()); math.Abs(v-9) > 0.5 {
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
		b, c := a.Clone(), a.Clone()
		for i := range raw {
			b.Data()[i] *= 0.5
			c.Data()[i] *= -0.25
		}

		left := plus(plus(a, b), c)
		right := plus(a, plus(b, c))
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

// plus returns a + b as a new tensor; the shapes must match.
func plus(a, b *Tensor) *Tensor {
	r := a.Clone()
	if err := r.AddInPlace(b); err != nil {
		panic(err)
	}
	return r
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		c := Randn(rng, 0, 1, k, n)
		left, _ := MatMul(a, plus(b, c))
		ab, _ := MatMul(a, b)
		ac, _ := MatMul(a, c)
		right := plus(ab, ac)
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
		if !slices.Equal(a.Shape(), att.Shape()) {
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
