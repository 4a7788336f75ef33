package binenc

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back.
func TestRoundTrip(t *testing.T) {
	vs := []float64{1.5, -0, math.Inf(-1), math.SmallestNonzeroFloat64}
	b := []byte{0xAB}
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|7)
	b = AppendInt(b, -42)
	b = AppendF64(b, math.Pi)
	b = AppendString(b, "dataset")
	b = AppendF64s(b, vs)
	b = AppendF64s(b, nil)

	r := NewReader(b)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63|7 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.Str(); got != "dataset" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.F64s(); !reflect.DeepEqual(got, vs) {
		t.Fatalf("F64s = %v", got)
	}
	if got := r.F64s(); got != nil {
		t.Fatalf("empty F64s = %v, want nil", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefusesLies covers the two ways untrusted input lies: a field
// past the end of the input and a count its elements cannot fit in. Both
// must fail before anything is allocated, the failure must stick, and
// trailing bytes must fail Done.
func TestReaderRefusesLies(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.U32(); !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("short U32: %v", r.Done())
	}
	if got := r.U8(); got != 0 {
		t.Fatalf("read after failure returned %d", got)
	}

	for _, count := range []uint32{2, 1 << 29, math.MaxUint32} {
		r = NewReader(append(AppendU32(nil, count), make([]byte, 8)...))
		if vs := r.F64s(); vs != nil || !errors.Is(r.Done(), ErrTruncated) {
			t.Fatalf("count %d over 8 bytes: %v, %v", count, vs, r.Done())
		}
	}

	r = NewReader([]byte{7, 0})
	if r.U8(); r.Done() == nil || errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("trailing byte: %v", r.Done())
	}

	r = NewReader(nil)
	r.Failf("first")
	r.Failf("second")
	if err := r.Done(); err == nil || err.Error() != "first" {
		t.Fatalf("Failf did not keep the first failure: %v", err)
	}
}
