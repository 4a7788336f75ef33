package flnet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/fl"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Frame format. Every message is a 4-byte little-endian payload length
// followed by a payload that opens with one fixed header:
//
//	off  0  u8    magic (0xD3)
//	off  1  u8    kind
//	off  2  u8    flags (state / flate / delta / quant; 0 on Hello and KindWire)
//	off  3  u8    reserved (0)
//	off  4  i64le ClientID     off 12  i64le Round     off 20  i64le NumSamples
//	off 28  i64le Version      off 36  i64le LastRound off 44  i64le RetryAfterMs
//	off 52  i64le AnchorRound  (delta base round; -1 when not a delta)
//
// The handshake frames — Hello and the server's KindWire ack — continue at
// fixed offsets and end with the job name:
//
//	off 60  u32le WireCaps   (Hello: advertised; KindWire: negotiated)
//	off 64  i64le QuantSeed  (KindWire)
//	off 72  f64le TopK       (KindWire)
//	off 80  u32le jobLen,    jobLen bytes   (Hello)
//
// Every other kind continues with three sections:
//
//	off 60  u32le errLen,    errLen bytes   (KindError text)
//	        u32le cohortN,   cohortN × i32le (sampled cohort ids)
//	        u32le rawLen     (state section length before compression; 0 = no state)
//	        u32le storedLen, storedLen bytes (the state section as stored)
//
// The flags say which of three things the stored state section is; any
// other combination, an undefined flag bit or a non-zero reserved byte is
// refused:
//
//	state                       rawLen/8 little-endian float64s (storedLen = rawLen)
//	state|flate [|delta]        the byte planes of those float64s' IEEE bits,
//	                            XORed with AnchorRound's state when delta is set:
//	                              u8 mask (bit p: plane p is deflated; never 0)
//	                              the planes the mask leaves clear, ascending,
//	                                rawLen/8 bytes each
//	                              the planes the mask names, ascending, each
//	                                u32le zLen + a deflate stream of rawLen/8 bytes
//	                            plane p holds byte p, least significant first,
//	                            of every coordinate
//	state|quant|delta [|flate]  a serialized fl.DeltaPayload against AnchorRound,
//	                            one deflate stream of rawLen bytes when flate is set:
//	                              u8 quantKind  u8 sparse  u32le dim  u32le count
//	                              f64le lo  f64le hi
//	                              [count uvarint index gaps when sparse: the
//	                                first index, then index − previous − 1]
//	                              count × (u8 | u16le) levels
//
// A deflate stream must end exactly where its declared length does, in
// both directions. Everything is written with the binenc primitives and
// parsed through one bounds-checked reader (readFrame) — no reflection —
// and the decoder grows its buffers only as bytes actually arrive, so a
// corrupt length prefix cannot force a giant allocation. A frame must end
// exactly where its last field does.

// Codec telemetry: compression and delta-broadcast effectiveness, counted
// at the codec like the frame/byte counters in wire.go.
var (
	telWireCompressedBytes = telemetry.NewCounter("dinar_wire_compressed_bytes_total",
		"flate-compressed state-section bytes written (post-compression size)")
	telWireDeltaHits = telemetry.NewCounter("dinar_wire_delta_hits_total",
		"state sections a delta-capable session sent as deltas against an anchor the peer holds (broadcasts against the previous round, uploads against the round's own broadcast)")
	telWireDeltaMisses = telemetry.NewCounter("dinar_wire_delta_misses_total",
		"state sections sent in full on a delta-capable session (anchor missing or too old)")
)

// frameMagic guards against a peer that fell out of frame sync (or is not
// speaking this protocol at all): the first payload byte of every frame.
const frameMagic = 0xD3

// Frame flags. Only the combinations in the table above mean anything;
// validFlags refuses the rest.
const (
	flagState byte = 1 << iota // the state section is present
	flagFlate                  // float64s: stored as byte planes; quantized: deflated whole
	flagDelta                  // state values are deltas against AnchorRound
	flagQuant                  // the state section is an fl.DeltaPayload
)

// validFlags reports whether a data frame's flags are one of the state
// section's defined forms.
func validFlags(flags byte) bool {
	switch flags {
	case 0, flagState, flagState | flagFlate, flagState | flagFlate | flagDelta,
		flagState | flagQuant | flagDelta, flagState | flagQuant | flagDelta | flagFlate:
		return true
	}
	return false
}

// fixedHeaderLen is the byte length of the fixed-offset frame header,
// minFrameLen the smallest well-formed payload (header plus the four empty
// section length prefixes), and handshakeLen a Hello or KindWire payload
// with an empty job name.
const (
	fixedHeaderLen = 60
	minFrameLen    = fixedHeaderLen + 4 + 4 + 4 + 4
	handshakeLen   = fixedHeaderLen + 4 + 8 + 8 + 4
)

// Codec is one session's negotiated payload codecs. A nil Codec means plain
// frames — raw float64 states, no compression — which is what both ends
// speak until (and unless) a KindWire ack says otherwise. Base, when
// delta or quantized payloads are negotiated, resolves an anchor round to
// the broadcast state both ends share for it (the server answers from its
// recent-broadcast ring, the client from its anchor buffers); returning
// nil means "not shared", which downgrades sends to full state and fails
// decodes of frames that need the anchor.
//
// A session uploads from one goroutine, so the codec also owns the scratch
// its quantized uploads are encoded with: two KindUpdate writes through one
// Codec must not run concurrently.
type Codec struct {
	caps      uint32
	quantSeed int64
	topK      float64
	base      func(round int) []float64

	// enc and upload are reused by every quantized upload this session
	// sends; upload is serialized into the frame before the write returns.
	enc    fl.DeltaEncoder
	upload fl.DeltaPayload
}

// NewCodec builds a session codec from negotiated capabilities. base may
// be nil when neither delta nor quantized payloads were negotiated.
func NewCodec(caps uint32, quantSeed int64, topK float64, base func(round int) []float64) *Codec {
	if caps&CapBinary == 0 {
		return nil
	}
	if caps&CapTopK == 0 {
		topK = 0
	}
	return &Codec{caps: caps, quantSeed: quantSeed, topK: topK, base: base}
}

func (c *Codec) has(cap uint32) bool { return c != nil && c.caps&cap != 0 }

// QuantKind returns the negotiated upload quantization width (QuantNone on
// unquantized sessions).
func (c *Codec) QuantKind() fl.QuantKind {
	switch {
	case c.has(CapQuantInt16):
		return fl.QuantInt16
	case c.has(CapQuantInt8):
		return fl.QuantInt8
	default:
		return fl.QuantNone
	}
}

// lookup resolves an anchor round, tolerating a nil Base.
func (c *Codec) lookup(round int) []float64 {
	if c == nil || c.base == nil || round < 0 {
		return nil
	}
	return c.base(round)
}

// CapsLabel renders a capability bitmask as the human-readable codec label
// used on /healthz ("binary", "binary+flate+int8+topk+delta", ...).
func CapsLabel(caps uint32) string {
	parts := []string{"binary"}
	if caps&CapFlate != 0 {
		parts = append(parts, "flate")
	}
	if caps&CapQuantInt16 != 0 {
		parts = append(parts, "int16")
	} else if caps&CapQuantInt8 != 0 {
		parts = append(parts, "int8")
	}
	if caps&CapTopK != 0 {
		parts = append(parts, "topk")
	}
	if caps&CapDelta != 0 {
		parts = append(parts, "delta")
	}
	return strings.Join(parts, "+")
}

// negotiateCaps intersects the server's offered capabilities with a
// client's advertised ones. Without CapBinary nothing else can apply (the
// session stays codec-free), and top-k is meaningful only with quantization.
func negotiateCaps(offer, advertised uint32) uint32 {
	caps := offer & advertised
	if caps&CapBinary == 0 {
		return 0
	}
	if caps&(CapQuantInt8|CapQuantInt16) == 0 {
		caps &^= CapTopK
	}
	return caps
}

// WriteMessageWith encodes msg as one frame under the session codec (nil
// for none) and hands it to w in a single Write, so a frame is never split
// across syscalls (and fault injectors that act on whole writes see whole
// frames).
func WriteMessageWith(w io.Writer, msg *Message, c *Codec) error {
	if msg.Kind == KindHello || msg.Kind == KindWire {
		return writeHandshake(w, msg)
	}
	return writeBinary(w, msg, c)
}

// ReadMessageWith decodes one frame with the session codec into msg,
// reusing msg's State backing array when its capacity suffices — pair it
// with GetState/PutState so a server folding thousands of updates per round
// recycles a handful of state buffers instead of allocating one per update.
// msg is reset first, so leftover fields from a previous frame never leak
// through. Delta and quantized payloads are reconstructed against the
// codec's anchor states, so msg.State always carries the full absolute
// vector on return.
func ReadMessageWith(r io.Reader, msg *Message, c *Codec) error {
	return readFrame(r, msg, c, maxFrameBytes)
}

// flate writer/reader pools: Reset-able instances so steady-state rounds
// compress without re-allocating the (large) flate state. An inflater owns
// the byte reader its flate reader drains, so resetting one allocates
// neither; tail is where the read that must find the stream's end lands.
type inflater struct {
	src  bytes.Reader
	zr   io.ReadCloser
	tail [1]byte
}

// Two writer levels serve three kinds of data. BestSpeed's LZ77 is what
// byte planes and a constant quantized delta need: runs of zero bytes. The
// levels of a live quantized delta have no runs to match, only a skewed
// distribution; BestSpeed's short matches break up its statistics, and
// Huffman-only coding stores FCNN6's dense int8 broadcast levels in 1.9 bits
// each against BestSpeed's 2.6, two to three times faster.
var (
	bestSpeedWriters = writerPool(flate.BestSpeed)
	huffmanWriters   = writerPool(flate.HuffmanOnly)
	inflaterPool     = sync.Pool{New: func() any {
		in := new(inflater)
		in.zr = flate.NewReader(&in.src)
		return in
	}}
)

// writerPool pools flate writers of one level.
func writerPool(level int) *sync.Pool {
	return &sync.Pool{New: func() any {
		zw, err := flate.NewWriter(io.Discard, level)
		if err != nil {
			panic(err) // both levels are valid
		}
		return zw
	}}
}

// deflate appends src to dst as one deflate stream written by a writer from
// pool.
func deflate(dst io.Writer, src []byte, pool *sync.Pool) error {
	zw := pool.Get().(*flate.Writer)
	defer pool.Put(zw)
	zw.Reset(dst)
	if _, err := zw.Write(src); err != nil {
		return err
	}
	return zw.Close()
}

// inflate decompresses stored, which must be one deflate stream of exactly
// n bytes and nothing after it, into a buffer drawn from pool; the caller
// returns the handle to pool.
func inflate(pool *bufPool[*[]byte], stored []byte, n int) ([]byte, *[]byte, error) {
	in := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(in)
	in.src.Reset(stored)
	if err := in.zr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, nil, err
	}
	raw, bp, err := readPayload(pool, in.zr, n)
	if err != nil {
		return nil, nil, fmt.Errorf("inflate: %w", err)
	}
	// *bytes.Reader is an io.ByteReader, so flate takes from it exactly the
	// bytes of the stream: what is left over was never part of it.
	switch m, end := in.zr.Read(in.tail[:]); {
	case m != 0 || !errors.Is(end, io.EOF):
		err = fmt.Errorf("inflate: stream does not end after the %d bytes it declares", n)
	case in.src.Len() != 0:
		err = fmt.Errorf("inflate: %d bytes after the end of the stream", in.src.Len())
	default:
		return raw, bp, nil
	}
	pool.put(bp)
	return nil, nil, err
}

// encodeQuantSection serializes a validated fl.DeltaPayload as the frame's
// state section. A top-k payload's indices ascend with a mean gap of ten on
// FCNN6, so as varint gaps they take about one byte each, not an index's
// four.
func encodeQuantSection(sec []byte, p *fl.DeltaPayload) []byte {
	sparse := byte(0)
	if p.Indices != nil {
		sparse = 1
	}
	sec = append(sec, byte(p.Kind), sparse)
	sec = binenc.AppendU32(sec, uint32(p.Dim))
	sec = binenc.AppendU32(sec, uint32(len(p.Q)))
	sec = binenc.AppendF64(sec, p.Lo)
	sec = binenc.AppendF64(sec, p.Hi)
	next := uint32(0)
	for _, ix := range p.Indices {
		sec = binary.AppendUvarint(sec, uint64(ix-next))
		next = ix + 1
	}
	if p.Kind == fl.QuantInt8 {
		for _, q := range p.Q {
			sec = append(sec, byte(q))
		}
	} else {
		for _, q := range p.Q {
			sec = append(sec, byte(q), byte(q>>8))
		}
	}
	return sec
}

// decodeQuantSection reconstructs the state a quantized section encodes
// against anchorRound's state, base + the dequantized delta, straight into
// msg.State: the bits fl.DeltaPayload.Apply computes, with no payload in
// between. It refuses every payload Validate does, and does so before it
// writes the state, which it sizes only once the anchor vouches for the
// dimension; msg.State's backing array is all it may allocate.
func decodeQuantSection(msg *Message, sec []byte, anchorRound int, c *Codec) error {
	const head = 2 + 4 + 4 + 8 + 8
	if len(sec) < head {
		return fmt.Errorf("quant section truncated at %d bytes", len(sec))
	}
	p := fl.DeltaPayload{
		Kind: fl.QuantKind(sec[0]),
		Dim:  int(binary.LittleEndian.Uint32(sec[2:])),
		Lo:   math.Float64frombits(binary.LittleEndian.Uint64(sec[10:])),
		Hi:   math.Float64frombits(binary.LittleEndian.Uint64(sec[18:])),
	}
	sparse := sec[1] != 0
	count := int(binary.LittleEndian.Uint32(sec[6:]))
	if err := p.ValidateHeader(count, sparse); err != nil {
		return err
	}
	gaps, levels := sec[head:head], sec[head:]
	if sparse {
		n, err := scanGaps(levels, count, p.Dim)
		if err != nil {
			return err
		}
		gaps, levels = levels[:n], levels[n:]
	}
	// A level's width is its kind's, so no level exceeds the kind's maximum.
	width := 1
	if p.Kind == fl.QuantInt16 {
		width = 2
	}
	if len(levels) != width*count {
		return fmt.Errorf("quant section has %d level bytes after index %d of %d, want %d", len(levels), count-1, count, width*count)
	}
	base := c.lookup(anchorRound)
	if len(base) != p.Dim {
		return fmt.Errorf("no shared anchor state for round %d (dimension %d)", anchorRound, p.Dim)
	}
	dst := sizeState(msg, p.Dim)
	var table [256]float64 // an int8 level's value, computed once
	if width == 1 {
		for q := range table {
			table[q] = p.Level(uint16(q))
		}
	}
	if sparse {
		copy(dst, base)
	}
	i := -1
	for j := range count {
		var d float64
		if width == 1 {
			d = table[levels[j]]
		} else {
			d = p.Level(binary.LittleEndian.Uint16(levels[2*j:]))
		}
		if sparse {
			gap, n := binary.Uvarint(gaps)
			gaps, i = gaps[n:], i+int(gap)+1
		} else {
			i = j
		}
		dst[i] = base[i] + d
	}
	return nil
}

// scanGaps walks the count index gaps that open sec and returns the bytes
// they take. It refuses a varint that is cut or runs past 64 bits, and a gap
// that leads to an index at or past dim; strict ascent holds by
// construction, so a repeated index is a gap that wraps past dim.
func scanGaps(sec []byte, count, dim int) (int, error) {
	at, next := 0, 0 // next: the least index the next gap can lead to
	for j := range count {
		gap, n := binary.Uvarint(sec[at:])
		switch {
		case n == 0:
			return 0, fmt.Errorf("quant section index %d of %d: gap cut after %d bytes", j, count, len(sec)-at)
		case n < 0:
			return 0, fmt.Errorf("quant section index %d of %d: gap varint runs past 64 bits", j, count)
		case gap >= uint64(dim-next):
			return 0, fmt.Errorf("quant section index %d of %d: gap %d leads past dimension %d", j, count, gap, dim)
		}
		at += n
		next += int(gap) + 1
	}
	return at, nil
}

// Byte planes. The XOR of two consecutive FCNN6 broadcasts (or of an upload
// and its broadcast) has 12-13 leading zero bits on average, so its planes
// are three kinds of data: the sign-and-exponent plane is 96 % zero bytes
// and deflates to 6 % of its size in 2 ms, the plane below it is 12-16 %
// zero and deflates to two thirds in 7-10 ms, and the six planes of mantissa
// below that are noise no coder shrinks. The encoder therefore samples every
// plane and hands flate only those with enough zero bytes to repay it; a
// frozen or all-zero stretch of the model raises every plane's share alike.
// EXPERIMENTS.md "PR 17" has the measurements behind the constants.
// The transpose itself, with the XOR against the anchor, runs in the
// byte-plane kernels of internal/tensor (ScatterPlanes, GatherPlanes) on
// AVX2 and AVX-512 hosts; they only move bytes, so they write the scalar
// loops' bits.
const (
	// planeSamples is how many coordinates, at one fixed stride, the zero
	// share of a frame's planes is estimated from: at 1,024 samples FCNN6's
	// second plane (a 16 % share) sits eight standard deviations under the
	// threshold.
	planeSamples = 1024
	// planeZeroShare: a plane is deflated when at least one in
	// planeZeroShare of its sampled bytes is zero. At that share and noise
	// elsewhere the entropy bound is 85 % of the plane.
	planeZeroShare = 4
	// planeMinDim is the shortest state written as planes: a plane at the
	// threshold share saves some 15 % of itself, which under 1 KiB does not
	// cover its stream's length prefix and Huffman table.
	planeMinDim = 1024
)

// planeMask samples the IEEE bits of state, XORed with base's where base
// has them (it is empty or as long as state), and returns the planes worth
// deflating as one bit each.
func planeMask(state, base []float64) byte {
	if len(state) < planeMinDim {
		return 0
	}
	var zeros [8]int
	samples, stride := 0, len(state)/planeSamples+1
	for i := 0; i < len(state); i += stride {
		x := math.Float64bits(state[i])
		if i < len(base) {
			x ^= math.Float64bits(base[i])
		}
		for p := range zeros {
			if byte(x>>(8*p)) == 0 {
				zeros[p]++
			}
		}
		samples++
	}
	var mask byte
	for p, z := range zeros {
		if z*planeZeroShare >= samples {
			mask |= 1 << p
		}
	}
	return mask
}

// scatterPlanes splits the IEEE bits of state, XORed with base's where base
// has them, into eight planes of len(state) bytes. The byte-plane transpose
// kernel (tensor.ScatterPlanes, a VPSHUFB and unpack ladder over 32
// coordinates at a time, on both vector tiers) does all it can; this loop,
// the reference the kernel is tested against, does the rest.
func scatterPlanes(planes *[8][]byte, state, base []float64) {
	n := len(state)
	p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
	p4, p5, p6, p7 := planes[4][:n], planes[5][:n], planes[6][:n], planes[7][:n]
	for i := tensor.ScatterPlanes(planes, state, base); i < n; i++ {
		x := math.Float64bits(state[i])
		if i < len(base) {
			x ^= math.Float64bits(base[i])
		}
		p0[i], p1[i], p2[i], p3[i] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		p4[i], p5[i], p6[i], p7[i] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
	}
}

// gatherPlanes is scatterPlanes backwards: dst from eight planes of
// len(dst) bytes, the kernel (tensor.GatherPlanes) first.
func gatherPlanes(dst []float64, planes *[8][]byte, base []float64) {
	n := len(dst)
	p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
	p4, p5, p6, p7 := planes[4][:n], planes[5][:n], planes[6][:n], planes[7][:n]
	for i := tensor.GatherPlanes(dst, planes, base); i < n; i++ {
		x := uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56
		if i < len(base) {
			x ^= math.Float64bits(base[i])
		}
		dst[i] = math.Float64frombits(x)
	}
}

// appendPlanes appends state's plane section (see the layout table) to the
// frame in buf: the planes mask leaves clear are scattered straight into
// the frame, the ones it names into pooled scratch and from there through
// flate into the frame.
func appendPlanes(buf *bytes.Buffer, mask byte, state, base []float64) error {
	dim, deflated := len(state), bits.OnesCount8(mask)
	bp := planeBufs.get(deflated * dim)
	defer planeBufs.put(bp)
	if cap(*bp) < deflated*dim {
		*bp = make([]byte, deflated*dim)
	}
	scratch := (*bp)[:deflated*dim]

	buf.WriteByte(mask)
	buf.Grow((8 - deflated) * dim)
	stored := buf.AvailableBuffer()[:(8-deflated)*dim]
	var planes [8][]byte
	rest, zrest := stored, scratch
	for p := range planes {
		if mask&(1<<p) != 0 {
			planes[p], zrest = zrest[:dim], zrest[dim:]
		} else {
			planes[p], rest = rest[:dim], rest[dim:]
		}
	}
	scatterPlanes(&planes, state, base)
	buf.Write(stored) // already in place: this only moves the buffer's length
	for p, plane := range planes {
		if mask&(1<<p) == 0 {
			continue
		}
		at := buf.Len()
		buf.Write([]byte{0, 0, 0, 0})
		if err := deflate(buf, plane, bestSpeedWriters); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf.Bytes()[at:], uint32(buf.Len()-at-4))
	}
	return nil
}

// appendQuantSection appends a serialized payload to the frame in buf,
// deflated whole when compress is set and that shrinks it, and returns
// flagFlate if so along with the serialized length. A constant delta (every
// level 0) keeps BestSpeed, whose matches store its runs in a few hundred
// bytes where Huffman-only would spend a bit on each level.
func appendQuantSection(buf *bytes.Buffer, p *fl.DeltaPayload, compress bool) (byte, int, error) {
	secBP := readBufs.get(8 * p.Dim) // the raw state bounds the section
	defer readBufs.put(secBP)
	sec := encodeQuantSection((*secBP)[:0], p)
	*secBP = sec[:0]
	buf.Grow(len(sec))
	if compress && len(sec) > 64 {
		pool := huffmanWriters
		if p.Hi == p.Lo {
			pool = bestSpeedWriters
		}
		at := buf.Len()
		if err := deflate(buf, sec, pool); err != nil {
			return 0, 0, err
		}
		if buf.Len()-at < len(sec) {
			return flagFlate, len(sec), nil
		}
		buf.Truncate(at)
	}
	buf.Write(sec)
	return 0, len(sec), nil
}

// encodeStateSection chooses the state encoding for msg under the codec and
// appends it to the frame in buf, returning the section's flags, its anchor
// round (-1 when the section is absolute) and its length before compression.
func encodeStateSection(buf *bytes.Buffer, msg *Message, c *Codec) (flags byte, anchorRound, rawLen int, err error) {
	if len(msg.State) == 0 {
		return 0, -1, 0, nil
	}
	start := buf.Len()
	quantized := c.QuantKind() != fl.QuantNone
	// The anchor a delta section would be written against: the round's own
	// broadcast for an upload (the client just decoded it, the server holds
	// it in its ring), the previous round's for a broadcast.
	anchorRound = -1
	switch {
	case msg.Kind == KindUpdate && (quantized || c.has(CapDelta)):
		anchorRound = msg.Round
	case msg.Kind == KindGlobal && c.has(CapDelta):
		anchorRound = msg.Round - 1
	}
	base := c.lookup(anchorRound)
	if len(base) != len(msg.State) {
		base = nil
	}
	missed := anchorRound >= 0 && base == nil

	var quant *fl.DeltaPayload
	switch {
	case base == nil:
	case msg.Kind == KindUpdate && quantized:
		// Quantized upload; without a shared base it goes out as floats.
		err := c.enc.Encode(&c.upload, c.QuantKind(), c.quantSeed, msg.ClientID, msg.Round, msg.Round, base, msg.State, c.topK)
		if err != nil {
			return 0, -1, 0, err
		}
		quant = &c.upload
	case msg.Kind == KindGlobal && msg.Canon != nil &&
		msg.Canon.BaseRound == anchorRound && msg.Canon.Dim == len(msg.State):
		// Quantized delta broadcast: the round's canonical payload, the
		// same bytes for every anchored peer, so every reconstruction
		// lands on the identical broadcast state.
		quant = msg.Canon
	case quantized || !c.has(CapFlate):
		// The lossless delta is the XOR of the IEEE bit patterns, not an
		// arithmetic difference: exactly invertible (prev + (v−prev) loses
		// the last ulp). It exists only as byte planes — interleaved, an
		// XOR is as large as the state — and only on unquantized sessions,
		// whose broadcast chain is the aggregates themselves.
		base = nil
	}

	if quant != nil {
		flags, rawLen, err = appendQuantSection(buf, quant, c.has(CapFlate))
		flags |= flagState | flagQuant | flagDelta
	} else {
		flags, rawLen = flagState, 8*len(msg.State)
		buf.Grow(rawLen) // room for either form, short of a deflated plane that grew
		var mask byte
		if c.has(CapFlate) {
			mask = planeMask(msg.State, base)
		}
		if mask != 0 {
			flags |= flagFlate
			if base != nil {
				flags |= flagDelta
			}
			err = appendPlanes(buf, mask, msg.State, base)
		} else {
			buf.Write(binenc.AppendRawF64s(buf.AvailableBuffer(), msg.State))
		}
	}
	if flags&flagDelta == 0 {
		anchorRound = -1
	}
	if flags&flagFlate != 0 {
		telWireCompressedBytes.Add(int64(buf.Len() - start))
	}
	if c.has(CapDelta) && flags&flagDelta != 0 {
		telWireDeltaHits.Inc()
	} else if c.has(CapDelta) && missed {
		telWireDeltaMisses.Inc()
	}
	return flags, anchorRound, rawLen, err
}

// appendHeader appends the 4-byte length placeholder (patched by sendFrame)
// and the fixed frame header.
func appendHeader(b []byte, msg *Message, flags byte, anchorRound int) []byte {
	b = append(b, 0, 0, 0, 0)
	b = append(b, frameMagic, byte(msg.Kind), flags, 0)
	b = binenc.AppendInt(b, msg.ClientID)
	b = binenc.AppendInt(b, msg.Round)
	b = binenc.AppendInt(b, msg.NumSamples)
	b = binenc.AppendInt(b, msg.Version)
	b = binenc.AppendInt(b, msg.LastRound)
	b = binenc.AppendInt(b, msg.RetryAfterMs)
	return binenc.AppendInt(b, anchorRound)
}

// sendFrame patches the length prefix of a finished frame and writes it.
func sendFrame(w io.Writer, kind Kind, b []byte, maxLen int) error {
	if len(b)-4 > maxLen {
		return fmt.Errorf("flnet: encode %v: frame length %d exceeds %d", kind, len(b)-4, maxLen)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("flnet: write payload: %w", err)
	}
	telTxFrames.Inc()
	telTxBytes.Add(int64(len(b)))
	return nil
}

// writeHandshake encodes a Hello or KindWire frame.
func writeHandshake(w io.Writer, msg *Message) error {
	b := make([]byte, 0, 4+handshakeLen+len(msg.Job))
	b = appendHeader(b, msg, 0, -1)
	b = binenc.AppendU32(b, msg.WireCaps)
	b = binenc.AppendU64(b, uint64(msg.QuantSeed))
	b = binenc.AppendF64(b, msg.TopK)
	b = binenc.AppendString(b, msg.Job)
	return sendFrame(w, msg.Kind, b, maxHelloBytes)
}

// writeBinary encodes msg as one data frame under the codec. The state
// section is encoded straight into the frame's buffer, behind room for the
// header that its flags and lengths then complete.
func writeBinary(w io.Writer, msg *Message, c *Codec) error {
	for _, id := range msg.Cohort {
		if id < 0 || id > math.MaxInt32 {
			return fmt.Errorf("flnet: encode %v: cohort id %d does not fit int32", msg.Kind, id)
		}
	}
	head := 4 + minFrameLen + len(msg.Err) + 4*len(msg.Cohort)
	// The raw state bounds the frame: the codecs only shrink it.
	buf := writeBufs.get(head + 8*len(msg.State))
	defer writeBufs.put(buf)
	buf.Reset()
	buf.Grow(head)
	buf.Write(buf.AvailableBuffer()[:head])
	flags, anchorRound, rawLen, err := encodeStateSection(buf, msg, c)
	if err != nil {
		return fmt.Errorf("flnet: encode %v: %w", msg.Kind, err)
	}
	frame := buf.Bytes()
	b := appendHeader(frame[:0], msg, flags, anchorRound)
	b = binenc.AppendString(b, msg.Err)
	b = binenc.AppendU32(b, uint32(len(msg.Cohort)))
	for _, id := range msg.Cohort {
		b = binenc.AppendU32(b, uint32(id))
	}
	b = binenc.AppendU32(b, uint32(rawLen))
	binenc.AppendU32(b, uint32(len(frame)-head))
	return sendFrame(w, msg.Kind, frame, maxFrameBytes)
}

// readFrame is the one frame parser: it decodes a frame of at most maxLen
// payload bytes into msg, reconstructing delta and quantized payloads
// against the codec's anchors. Every length is checked against the bytes
// that actually arrived before it is believed, and the payload buffer grows
// only as bytes arrive (readPayload), so corrupt frames fail cheaply.
func readFrame(r io.Reader, msg *Message, c *Codec, maxLen uint32) error {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("flnet: read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[:])
	if n < minFrameLen || n > maxLen {
		return fmt.Errorf("flnet: frame length %d out of range", n)
	}
	payload, bp, err := readPayload(&readBufs, r, int(n))
	if err != nil {
		return fmt.Errorf("flnet: read payload: %w", err)
	}
	defer readBufs.put(bp)
	if payload[0] != frameMagic {
		return fmt.Errorf("flnet: bad frame magic 0x%02x", payload[0])
	}
	kind := Kind(payload[1])
	if kind < KindHello || kind > KindWire {
		return fmt.Errorf("flnet: unknown frame kind %d", payload[1])
	}
	flags := payload[2]
	if payload[3] != 0 {
		return fmt.Errorf("flnet: reserved header byte is 0x%02x", payload[3])
	}

	state := msg.State
	*msg = Message{State: state[:0], Kind: kind}
	rd := binenc.NewReader(payload[4:])
	msg.ClientID = rd.Int()
	msg.Round = rd.Int()
	msg.NumSamples = rd.Int()
	msg.Version = rd.Int()
	msg.LastRound = rd.Int()
	msg.RetryAfterMs = rd.Int()
	anchorRound := rd.Int()

	if kind == KindHello || kind == KindWire {
		if n > maxHelloBytes {
			return fmt.Errorf("flnet: %v frame length %d out of range", kind, n)
		}
		err = decodeHandshake(msg, rd, flags)
	} else {
		err = decodeData(msg, rd, flags, anchorRound, c)
	}
	if err != nil {
		return fmt.Errorf("flnet: decode %v: %w", kind, err)
	}
	telRxFrames.Inc()
	telRxBytes.Add(int64(n) + 4)
	return nil
}

// decodeHandshake parses what follows the fixed header of a Hello or
// KindWire frame.
func decodeHandshake(msg *Message, rd *binenc.Reader, flags byte) error {
	if flags != 0 {
		return fmt.Errorf("handshake frame carries flags %#x", flags)
	}
	msg.WireCaps = rd.U32()
	msg.QuantSeed = int64(rd.U64())
	msg.TopK = rd.F64()
	msg.Job = rd.Str()
	return rd.Done()
}

// decodeData parses the error, cohort and state sections of every other
// kind.
func decodeData(msg *Message, rd *binenc.Reader, flags byte, anchorRound int, c *Codec) error {
	if !validFlags(flags) {
		return fmt.Errorf("flags %#x name no state section form", flags)
	}
	msg.Err = rd.Str()
	if cohortN := rd.Count(4); cohortN > 0 {
		msg.Cohort = make([]int, cohortN)
		for i := range msg.Cohort {
			id := rd.U32()
			if id > math.MaxInt32 {
				return fmt.Errorf("cohort id %d does not fit int32", id)
			}
			msg.Cohort[i] = int(id)
		}
	}
	rawLen := int(rd.U32())
	stored := rd.Bytes(rd.Count(1))
	if err := rd.Done(); err != nil {
		return err
	}
	if rawLen > maxFrameBytes {
		return fmt.Errorf("state section length %d out of range", rawLen)
	}
	switch {
	case flags == 0:
		if len(stored) != 0 || rawLen != 0 {
			return fmt.Errorf("stateless frame carries a %d-byte state section", len(stored))
		}
		return nil
	case flags&flagQuant != 0:
		sec := stored
		if flags&flagFlate != 0 {
			raw, rbp, err := inflate(&readBufs, stored, rawLen)
			if err != nil {
				return err
			}
			defer readBufs.put(rbp)
			sec = raw
		} else if rawLen != len(stored) {
			return fmt.Errorf("uncompressed state section stored %d bytes, declared %d", len(stored), rawLen)
		}
		return decodeQuantSection(msg, sec, anchorRound, c)
	case rawLen%8 != 0:
		return fmt.Errorf("state section length %d is not a float64 multiple", rawLen)
	case flags&flagFlate != 0:
		return decodePlanes(msg, stored, rawLen/8, flags&flagDelta != 0, anchorRound, c)
	case rawLen != len(stored):
		return fmt.Errorf("uncompressed state section stored %d bytes, declared %d", len(stored), rawLen)
	}
	binenc.RawF64s(sizeState(msg, rawLen/8), stored)
	return nil
}

// sizeState gives msg.State length dim, reusing its backing array when the
// capacity suffices.
func sizeState(msg *Message, dim int) []float64 {
	if cap(msg.State) < dim {
		msg.State = make([]float64, dim)
	}
	msg.State = msg.State[:dim]
	return msg.State
}

// decodePlanes reconstructs msg.State from a plane section of dim
// coordinates. The planes stored raw are read in place from the frame's
// payload; only the deflated ones are inflated, into pooled scratch. The
// state is sized last, once every length in the section has proved true.
func decodePlanes(msg *Message, sec []byte, dim int, delta bool, anchorRound int, c *Codec) error {
	rd := binenc.NewReader(sec)
	mask := rd.U8()
	if mask == 0 {
		rd.Failf("plane section deflates no plane")
	}
	var planes [8][]byte
	for p := range planes {
		if mask&(1<<p) == 0 {
			planes[p] = rd.Bytes(dim)
		}
	}
	for p := range planes {
		if mask&(1<<p) != 0 {
			planes[p] = rd.Bytes(rd.Count(1)) // the deflate stream, until inflated below
		}
	}
	if err := rd.Done(); err != nil {
		return fmt.Errorf("plane section: %w", err)
	}
	var scratch [8]*[]byte
	defer func() {
		for _, bp := range scratch {
			if bp != nil {
				planeBufs.put(bp)
			}
		}
	}()
	for p := range planes {
		if mask&(1<<p) == 0 {
			continue
		}
		var err error
		if planes[p], scratch[p], err = inflate(&planeBufs, planes[p], dim); err != nil {
			return fmt.Errorf("plane %d: %w", p, err)
		}
	}
	var base []float64
	if delta {
		if base = c.lookup(anchorRound); len(base) != dim {
			return fmt.Errorf("no shared anchor state for round %d (dimension %d)", anchorRound, dim)
		}
	}
	gatherPlanes(sizeState(msg, dim), &planes, base)
	return nil
}

// WireBytesTotals returns the process-lifetime wire byte counters
// (headers included); the wire bench and the byte-drop
// acceptance test difference them around a federation.
func WireBytesTotals() (tx, rx int64) {
	return telTxBytes.Value(), telRxBytes.Value()
}
