// Package binenc holds the little-endian primitives behind every byte this
// repository puts on a socket or a disk: the flnet frame codec and the
// checkpoint payload codec both append with these functions and parse with
// Reader, so there is one encoding and one bounds-checking discipline.
//
// Integers are fixed width (u8, u32, i64 as two's complement), float64s
// are their IEEE-754 bit patterns, and every variable-length field is a
// u32 count followed by that many elements.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a field that runs past the end of the input; Reader
// errors wrap it.
var ErrTruncated = errors.New("binenc: input truncated")

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends v as an i64.
func AppendInt(b []byte, v int) []byte { return AppendU64(b, uint64(int64(v))) }

// AppendF64 appends v's bit pattern.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendRawF64s appends the values' bit patterns with no count in front.
func AppendRawF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = AppendU64(b, math.Float64bits(v))
	}
	return b
}

// AppendF64s appends a u32 count and the values.
func AppendF64s(b []byte, vs []float64) []byte {
	return AppendRawF64s(AppendU32(b, uint32(len(vs))), vs)
}

// AppendString appends a u32 length and the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// RawF64s decodes len(dst) float64s from the front of src, which must hold
// at least 8·len(dst) bytes.
func RawF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Reader is a cursor over untrusted bytes. Every read is checked against
// the bytes actually remaining, and every count against the smallest space
// its elements could occupy, before anything is allocated. The first
// failure sticks: later reads return zero values, so a decoder reads
// straight through and checks Done once.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b, which it aliases and never modifies.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Failf records a decoder's own validation failure (a field that parsed
// but cannot be right) unless an earlier failure already stuck.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Done returns the first failure, or an error when unread bytes remain.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Failf("binenc: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("%w: want %d bytes, %d remain", ErrTruncated, n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a u64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int reads an i64.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and fails unless that many elements of
// at least elemSize bytes each still fit in the input — the check that
// keeps a hostile count from sizing an allocation.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64(len(r.buf)/elemSize) {
		r.err = fmt.Errorf("%w: count %d × %d bytes, %d remain", ErrTruncated, n, elemSize, len(r.buf))
		return 0
	}
	return int(n)
}

// Str reads a u32 length and that many bytes as a string. (Not String:
// that would make a Reader a fmt.Stringer whose formatting consumes input.)
func (r *Reader) Str() string { return string(r.Bytes(r.Count(1))) }

// F64s reads a u32 count and the values; a zero count yields nil.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	RawF64s(vs, r.Bytes(8*n))
	return vs
}
