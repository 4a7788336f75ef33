package fl

import (
	"fmt"
	"math"
)

// Quantized delta payloads are the lossy half of the wire protocol
// (internal/flnet): a client uploads q(update − broadcast) instead of the
// raw float64 vector, and the server reconstructs broadcast + dq(payload)
// before screening and folding. Reconstruction is a pure function of the
// payload bytes, and the payload bytes are a pure function of
// (kind, seed, stream, round, base, state, topK) — stochastic rounding is
// driven by a counter-mode hash, not a stateful RNG — so a federation's
// aggregate stays bit-deterministic for a fixed seed no matter how encode
// and fold calls interleave across connections.

// QuantKind selects the quantization level width.
type QuantKind uint8

// Quantization kinds. QuantNone means raw float64 payloads.
const (
	QuantNone QuantKind = iota
	QuantInt8
	QuantInt16
)

// String implements fmt.Stringer.
func (k QuantKind) String() string {
	switch k {
	case QuantNone:
		return "none"
	case QuantInt8:
		return "int8"
	case QuantInt16:
		return "int16"
	default:
		return fmt.Sprintf("quant(%d)", uint8(k))
	}
}

// levels returns the top quantization level (0..levels inclusive), or 0 for
// QuantNone.
func (k QuantKind) levels() uint32 {
	switch k {
	case QuantInt8:
		return math.MaxUint8
	case QuantInt16:
		return math.MaxUint16
	default:
		return 0
	}
}

// ParseQuantKind maps a flag value ("none", "int8", "int16"; "" means none)
// to its QuantKind.
func ParseQuantKind(s string) (QuantKind, error) {
	switch s {
	case "", "none":
		return QuantNone, nil
	case "int8":
		return QuantInt8, nil
	case "int16":
		return QuantInt16, nil
	default:
		return QuantNone, fmt.Errorf("fl: unknown quantization kind %q (want none, int8, or int16)", s)
	}
}

// DeltaPayload is a quantized, optionally top-k-sparsified difference
// between a state vector and a base state both ends share (the round's
// broadcast for uploads, the previous round's broadcast for delta-encoded
// downloads). Values dequantize to Lo + Q/levels·(Hi−Lo).
type DeltaPayload struct {
	// Kind is the level width (QuantInt8 or QuantInt16).
	Kind QuantKind
	// Dim is the full vector length (reconstruction needs it when the
	// payload is sparse).
	Dim int
	// BaseRound is the round of the base state the delta was taken against.
	BaseRound int
	// Lo and Hi span the quantization range (the encoded deltas' min/max).
	Lo, Hi float64
	// Indices lists the coordinates carried by a sparse payload in
	// ascending order; nil means dense (len(Q) == Dim).
	Indices []uint32
	// Q holds the quantization levels, one per carried coordinate
	// (uint8-ranged when Kind is QuantInt8).
	Q []uint16
}

// Mix64 is the SplitMix64 finalizer: a counter-mode hash whose stream
// quality is all stochastic rounding needs, with no RNG state to order. The
// cohort sampler and the synthetic fleet derive their seeded streams from it
// too.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantStream derives the per-(seed, stream, round) hash base; coordinate i
// draws Mix64(base + i). stream is the uploading client id, or -1 for
// the server's canonical broadcast delta.
func quantStream(seed int64, stream, round int) uint64 {
	h := Mix64(uint64(seed))
	h = Mix64(h ^ uint64(int64(stream))*0xd1342543de82ef95)
	return Mix64(h ^ uint64(int64(round))*0xaf251af3b0f025b5)
}

// DeltaEncoder is the one delta-payload encoder. It never materializes
// state − base — every pass subtracts again, which costs less than a
// dim-sized buffer held per session — so its only scratch is the selection
// histogram, and with a reused payload repeated encodes allocate nothing.
// It is not safe for concurrent use: the owner is whoever already
// serializes the encodes — a session's wire codec for its uploads, the
// server's round loop for the canonical broadcast delta. The zero value is
// ready to use.
type DeltaEncoder struct {
	hist []uint32 // radix-select counters, allocated on the first top-k encode
}

// Encode quantizes state − base into p with seeded stochastic rounding
// (round up with probability equal to the fractional level, so the
// dequantized delta is unbiased), reusing p's Indices and Q backing arrays.
// topK in (0,1) keeps only that fraction of coordinates: descending |delta|,
// ties broken by ascending index, carried in ascending index order. The
// selection is linear-time — kthLargestMagnitude finds the k-th largest
// magnitude, then one ascending pass keeps every coordinate above it plus
// the first ties until k are taken. baseRound tags the payload with the
// base state's round for the decoder's anchor lookup. A NaN or Inf anywhere
// in the delta is refused, selected or not.
//
// The encoding is bit-reproducible: the same inputs produce the same
// payload in every run and on every platform, which is what lets the
// server's exact fixed-point fold stay deterministic over quantized
// uploads.
func (e *DeltaEncoder) Encode(p *DeltaPayload, kind QuantKind, seed int64, stream, round, baseRound int, base, state []float64, topK float64) error {
	if kind != QuantInt8 && kind != QuantInt16 {
		return fmt.Errorf("fl: cannot encode delta with quantization kind %v", kind)
	}
	if len(base) != len(state) || len(state) == 0 {
		return fmt.Errorf("fl: delta encode needs matching non-empty vectors, got base %d state %d", len(base), len(state))
	}
	dim := len(state)
	base = base[:dim]
	sparse := topK > 0 && topK < 1

	// One pass refuses non-finite deltas and finds the quantization range
	// of a dense payload: the carried deltas' min/max (a sparse payload
	// rescans over its selection).
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range state {
		d := v - base[i]
		if math.Float64bits(d)&magnitudeMask >= infMagnitude { // NaN or Inf
			return fmt.Errorf("fl: delta encode: non-finite delta %g at coordinate %d", d, i)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}

	count := dim
	var idx []uint32
	if sparse {
		count = int(math.Ceil(topK * float64(dim)))
		if count < 1 {
			count = 1
		}
		if idx = p.Indices[:0]; cap(idx) < count {
			idx = make([]uint32, 0, count)
		}
		if e.hist == nil {
			e.hist = make([]uint32, radixBuckets)
		}
		threshold, above := kthLargestMagnitude(state, base, count, e.hist)
		ties := count - above
		lo, hi = math.Inf(1), math.Inf(-1)
		for i, v := range state {
			d := v - base[i]
			m := math.Float64bits(d) & magnitudeMask
			if m < threshold {
				continue
			}
			if m == threshold {
				if ties == 0 {
					continue
				}
				ties--
			}
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			idx = append(idx, uint32(i))
			if len(idx) == count {
				break
			}
		}
	}
	if cap(p.Q) < count {
		p.Q = make([]uint16, count)
	}
	*p = DeltaPayload{Kind: kind, Dim: dim, BaseRound: baseRound, Lo: lo, Hi: hi, Indices: idx, Q: p.Q[:count]}
	if hi == lo {
		clear(p.Q) // constant delta: every level is 0, dequant yields Lo
		return nil
	}

	levels := float64(kind.levels())
	scale := levels / (hi - lo)
	h := quantStream(seed, stream, round)
	for j := range p.Q {
		coord := j
		if sparse {
			coord = int(idx[j])
		}
		x := (state[coord] - base[coord] - lo) * scale
		q := math.Floor(x)
		// Counter-mode draw in [0,1): round up with probability x − q.
		if u := float64(Mix64(h+uint64(coord))>>11) / float64(1<<53); u < x-q {
			q++
		}
		if q < 0 {
			q = 0
		}
		if q > levels {
			q = levels
		}
		p.Q[j] = uint16(q)
	}
	return nil
}

// EncodeDelta is DeltaEncoder.Encode with fresh scratch and a fresh
// payload, for callers that encode once or keep the result.
func EncodeDelta(kind QuantKind, seed int64, stream, round, baseRound int, base, state []float64, topK float64) (*DeltaPayload, error) {
	var e DeltaEncoder
	p := new(DeltaPayload)
	if err := e.Encode(p, kind, seed, stream, round, baseRound, base, state, topK); err != nil {
		return nil, err
	}
	return p, nil
}

// Dequant returns the reconstructed delta value for carried coordinate j.
func (p *DeltaPayload) Dequant(j int) float64 {
	if p.Hi == p.Lo {
		return p.Lo
	}
	return p.Lo + float64(p.Q[j])/float64(p.Kind.levels())*(p.Hi-p.Lo)
}

// Validate checks the payload's structural invariants (sizes, kind, index
// ordering and bounds) so a decoder can reject a corrupt frame before
// touching any base state.
func (p *DeltaPayload) Validate() error {
	if p.Kind != QuantInt8 && p.Kind != QuantInt16 {
		return fmt.Errorf("fl: delta payload has quantization kind %v", p.Kind)
	}
	if p.Dim <= 0 {
		return fmt.Errorf("fl: delta payload has dimension %d", p.Dim)
	}
	if math.IsNaN(p.Lo) || math.IsInf(p.Lo, 0) || math.IsNaN(p.Hi) || math.IsInf(p.Hi, 0) || p.Hi < p.Lo {
		return fmt.Errorf("fl: delta payload has range [%g, %g]", p.Lo, p.Hi)
	}
	if p.Indices == nil {
		if len(p.Q) != p.Dim {
			return fmt.Errorf("fl: dense delta payload has %d levels for dimension %d", len(p.Q), p.Dim)
		}
	} else {
		if len(p.Indices) != len(p.Q) || len(p.Indices) == 0 || len(p.Indices) > p.Dim {
			return fmt.Errorf("fl: sparse delta payload has %d indices for %d levels (dimension %d)",
				len(p.Indices), len(p.Q), p.Dim)
		}
		prev := -1
		for _, ix := range p.Indices {
			if int(ix) <= prev || int(ix) >= p.Dim {
				return fmt.Errorf("fl: sparse delta payload index %d out of order or range (dimension %d)", ix, p.Dim)
			}
			prev = int(ix)
		}
	}
	if max := uint16(p.Kind.levels()); max < math.MaxUint16 {
		for _, q := range p.Q {
			if q > max {
				return fmt.Errorf("fl: delta payload level %d exceeds %v maximum %d", q, p.Kind, max)
			}
		}
	}
	return nil
}

// Apply reconstructs base + dequantized delta into dst (grown as needed)
// and returns it. base is read-only; coordinates a sparse payload does not
// carry copy through unchanged.
func (p *DeltaPayload) Apply(base, dst []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	if len(base) != p.Dim {
		return dst, fmt.Errorf("fl: delta payload for dimension %d applied to base of %d", p.Dim, len(base))
	}
	if cap(dst) < p.Dim {
		dst = make([]float64, p.Dim)
	}
	dst = dst[:p.Dim]
	copy(dst, base)
	if p.Indices == nil {
		for i := range dst {
			dst[i] += p.Dequant(i)
		}
		return dst, nil
	}
	for j, ix := range p.Indices {
		dst[ix] += p.Dequant(j)
	}
	return dst, nil
}
