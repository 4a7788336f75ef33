package flnet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/fl"
	"repro/internal/telemetry"
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
//	        u32le storedLen, storedLen bytes (flate-compressed iff flagFlate)
//
// The state section is either rawLen/8 little-endian float64s (absolute
// values, or deltas against AnchorRound when flagDelta is set) or, with
// flagQuant, a serialized fl.DeltaPayload:
//
//	u8 quantKind  u8 sparse  u32le dim  u32le count  f64le lo  f64le hi
//	[count × u32le indices when sparse]  count × (u8 | u16le) levels
//
// Everything is written with the binenc primitives and parsed through one
// bounds-checked reader (readFrame) — no reflection — and the decoder grows
// its buffer only as bytes actually arrive, so a corrupt length prefix
// cannot force a giant allocation. A frame must end exactly where its last
// field does.

// Codec telemetry: compression and delta-broadcast effectiveness, counted
// at the codec like the frame/byte counters in wire.go.
var (
	telWireCompressedBytes = telemetry.NewCounter("dinar_wire_compressed_bytes_total",
		"flate-compressed state-section bytes written (post-compression size)")
	telWireDeltaHits = telemetry.NewCounter("dinar_wire_delta_hits_total",
		"global broadcasts sent as deltas against the peer's anchor round")
	telWireDeltaMisses = telemetry.NewCounter("dinar_wire_delta_misses_total",
		"global broadcasts sent in full on a delta-capable session (anchor missing or too old)")
)

// frameMagic guards against a peer that fell out of frame sync (or is not
// speaking this protocol at all): the first payload byte of every frame.
const frameMagic = 0xD3

// Frame flags.
const (
	flagState byte = 1 << iota // the state section is present
	flagFlate                  // the state section is flate-compressed
	flagDelta                  // state values are deltas against AnchorRound
	flagQuant                  // the state section is an fl.DeltaPayload
)

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
// compress without re-allocating the (large) flate state.
var (
	flateWriterPool = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level
		}
		return zw
	}}
	flateReaderPool = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
)

// deflate compresses src into dst (reset first), returning dst's bytes.
func deflate(dst *bytes.Buffer, src []byte) ([]byte, error) {
	dst.Reset()
	zw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(zw)
	zw.Reset(dst)
	if _, err := zw.Write(src); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return dst.Bytes(), nil
}

// inflate decompresses exactly rawLen bytes of stored into a pooled buffer;
// the caller returns the handle via putReadBuf.
func inflate(stored []byte, rawLen int) ([]byte, *[]byte, error) {
	zr := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
		return nil, nil, err
	}
	raw, bp, err := readPayload(zr, rawLen)
	if err != nil {
		return nil, nil, fmt.Errorf("inflate: %w", err)
	}
	return raw, bp, nil
}

// encodeQuantSection serializes a validated fl.DeltaPayload as the frame's
// state section.
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
	for _, ix := range p.Indices {
		sec = binenc.AppendU32(sec, ix)
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

// decodeQuantSection parses a quantized state section back into a payload.
// The payload copies nothing out of sec for Q/Indices — it allocates — so
// callers may recycle sec afterwards.
func decodeQuantSection(sec []byte, anchorRound int) (*fl.DeltaPayload, error) {
	const head = 2 + 4 + 4 + 8 + 8
	if len(sec) < head {
		return nil, fmt.Errorf("quant section truncated at %d bytes", len(sec))
	}
	p := &fl.DeltaPayload{
		Kind:      fl.QuantKind(sec[0]),
		BaseRound: anchorRound,
		Dim:       int(binary.LittleEndian.Uint32(sec[2:])),
		Lo:        math.Float64frombits(binary.LittleEndian.Uint64(sec[10:])),
		Hi:        math.Float64frombits(binary.LittleEndian.Uint64(sec[18:])),
	}
	sparse := sec[1]
	count := int(binary.LittleEndian.Uint32(sec[6:]))
	if count <= 0 || count > maxFrameBytes/2 {
		return nil, fmt.Errorf("quant section carries %d coordinates", count)
	}
	rest := sec[head:]
	if sparse != 0 {
		if len(rest) < 4*count {
			return nil, fmt.Errorf("quant section truncated in indices")
		}
		p.Indices = make([]uint32, count)
		for j := range p.Indices {
			p.Indices[j] = binary.LittleEndian.Uint32(rest[4*j:])
		}
		rest = rest[4*count:]
	}
	width := 1
	if p.Kind == fl.QuantInt16 {
		width = 2
	}
	if len(rest) != width*count {
		return nil, fmt.Errorf("quant section has %d level bytes, want %d", len(rest), width*count)
	}
	p.Q = make([]uint16, count)
	if width == 1 {
		for j := range p.Q {
			p.Q[j] = uint16(rest[j])
		}
	} else {
		for j := range p.Q {
			p.Q[j] = binary.LittleEndian.Uint16(rest[2*j:])
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// encodeStateSection chooses the state encoding for msg under the codec and
// appends it to sec, returning the section, its flags, and the anchor
// round (-1 when the section is absolute).
func encodeStateSection(sec []byte, msg *Message, c *Codec) ([]byte, byte, int, error) {
	if len(msg.State) == 0 {
		return sec, 0, -1, nil
	}
	flags := flagState
	switch {
	case msg.Kind == KindUpdate && c.QuantKind() != fl.QuantNone:
		// Quantized upload: delta against the round's broadcast, which the
		// client just decoded and the server holds in its ring. Without a
		// shared base the upload falls back to raw floats.
		if base := c.lookup(msg.Round); len(base) == len(msg.State) {
			err := c.enc.Encode(&c.upload, c.QuantKind(), c.quantSeed, msg.ClientID, msg.Round, msg.Round, base, msg.State, c.topK)
			if err != nil {
				return sec, 0, -1, err
			}
			return encodeQuantSection(sec, &c.upload), flags | flagQuant | flagDelta, msg.Round, nil
		}
	case msg.Kind == KindGlobal && c.has(CapDelta) && msg.Round > 0:
		prev := c.lookup(msg.Round - 1)
		if msg.Canon != nil && len(prev) == len(msg.State) &&
			msg.Canon.BaseRound == msg.Round-1 && msg.Canon.Dim == len(msg.State) {
			// Quantized delta broadcast: the round's canonical payload, the
			// same bytes for every anchored peer, so every reconstruction
			// lands on the identical broadcast state.
			telWireDeltaHits.Inc()
			return encodeQuantSection(sec, msg.Canon), flags | flagQuant | flagDelta, msg.Round - 1, nil
		}
		if c.QuantKind() == fl.QuantNone && len(prev) == len(msg.State) {
			// Lossless delta broadcast: XOR of the IEEE bit patterns, not an
			// arithmetic difference — exactly invertible (prev + (v−prev)
			// loses the last ulp), and slowly-evolving coordinates share
			// sign/exponent/mantissa prefixes that XOR to zero runs flate
			// squeezes well below the full state.
			telWireDeltaHits.Inc()
			for i, v := range msg.State {
				sec = binenc.AppendU64(sec, math.Float64bits(v)^math.Float64bits(prev[i]))
			}
			return sec, flags | flagDelta, msg.Round - 1, nil
		}
		telWireDeltaMisses.Inc()
	}
	return binenc.AppendRawF64s(sec, msg.State), flags, -1, nil
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

// writeBinary encodes msg as one data frame under the codec.
func writeBinary(w io.Writer, msg *Message, c *Codec) error {
	secBP := readBufPool.Get().(*[]byte)
	defer putReadBuf(secBP)
	sec, flags, anchorRound, err := encodeStateSection((*secBP)[:0], msg, c)
	*secBP = sec[:0]
	if err != nil {
		return fmt.Errorf("flnet: encode %v: %w", msg.Kind, err)
	}
	stored := sec
	rawLen := len(sec)
	cb := writeBufPool.Get().(*bytes.Buffer)
	defer putWriteBuf(cb)
	if c.has(CapFlate) && len(sec) > 64 {
		if z, err := deflate(cb, sec); err == nil && len(z) < len(sec) {
			stored = z
			flags |= flagFlate
			telWireCompressedBytes.Add(int64(len(z)))
		}
	}

	buf := writeBufPool.Get().(*bytes.Buffer)
	defer putWriteBuf(buf)
	buf.Reset()
	need := 4 + minFrameLen + len(msg.Err) + 4*len(msg.Cohort) + len(stored)
	buf.Grow(need)
	b := appendHeader(buf.Bytes()[:0], msg, flags, anchorRound)
	b = binenc.AppendString(b, msg.Err)
	b = binenc.AppendU32(b, uint32(len(msg.Cohort)))
	for _, id := range msg.Cohort {
		if id < 0 || id > math.MaxInt32 {
			return fmt.Errorf("flnet: encode %v: cohort id %d does not fit int32", msg.Kind, id)
		}
		b = binenc.AppendU32(b, uint32(id))
	}
	b = binenc.AppendU32(b, uint32(rawLen))
	b = binenc.AppendU32(b, uint32(len(stored)))
	b = append(b, stored...)
	return sendFrame(w, msg.Kind, b, maxFrameBytes)
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
	payload, bp, err := readPayload(r, int(n))
	if err != nil {
		return fmt.Errorf("flnet: read payload: %w", err)
	}
	defer putReadBuf(bp)
	if payload[0] != frameMagic {
		return fmt.Errorf("flnet: bad frame magic 0x%02x", payload[0])
	}
	kind := Kind(payload[1])
	if kind < KindHello || kind > KindWire {
		return fmt.Errorf("flnet: unknown frame kind %d", payload[1])
	}
	flags := payload[2]

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
	if flags&flagState == 0 {
		if len(stored) != 0 || rawLen != 0 {
			return fmt.Errorf("stateless frame carries a %d-byte state section", len(stored))
		}
		return nil
	}
	sec := stored
	if flags&flagFlate != 0 {
		raw, rbp, err := inflate(stored, rawLen)
		if err != nil {
			return err
		}
		defer putReadBuf(rbp)
		sec = raw
	} else if rawLen != len(stored) {
		return fmt.Errorf("uncompressed state section stored %d bytes, declared %d", len(stored), rawLen)
	}
	return decodeStateSection(msg, sec, flags, anchorRound, c)
}

// decodeStateSection reconstructs msg.State from a frame's (decompressed)
// state section.
func decodeStateSection(msg *Message, sec []byte, flags byte, anchorRound int, c *Codec) error {
	if flags&flagQuant != 0 {
		p, err := decodeQuantSection(sec, anchorRound)
		if err != nil {
			return err
		}
		base := c.lookup(anchorRound)
		if len(base) != p.Dim {
			return fmt.Errorf("no shared anchor state for round %d (dimension %d)", anchorRound, p.Dim)
		}
		msg.State, err = p.Apply(base, msg.State)
		return err
	}
	if len(sec)%8 != 0 {
		return fmt.Errorf("state section length %d is not a float64 multiple", len(sec))
	}
	dim := len(sec) / 8
	if cap(msg.State) < dim {
		msg.State = make([]float64, dim)
	}
	msg.State = msg.State[:dim]
	if flags&flagDelta != 0 {
		base := c.lookup(anchorRound)
		if len(base) != dim {
			return fmt.Errorf("no shared anchor state for round %d (dimension %d)", anchorRound, dim)
		}
		for i := range msg.State {
			msg.State[i] = math.Float64frombits(math.Float64bits(base[i]) ^ binary.LittleEndian.Uint64(sec[8*i:]))
		}
		return nil
	}
	binenc.RawF64s(msg.State, sec)
	return nil
}

// WireBytesTotals returns the process-lifetime wire byte counters
// (headers included); the wire bench and the byte-drop
// acceptance test difference them around a federation.
func WireBytesTotals() (tx, rx int64) {
	return telTxBytes.Value(), telRxBytes.Value()
}
