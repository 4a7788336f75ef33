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

	"repro/internal/fl"
	"repro/internal/telemetry"
)

// Version 3 frame format. After the gob Hello/KindWire handshake a binary
// session frames every message as a 4-byte little-endian payload length
// followed by:
//
//	off  0  u8    magic (0xD3)
//	off  1  u8    kind
//	off  2  u8    flags (state / flate / delta / quant)
//	off  3  u8    reserved (0)
//	off  4  i64le ClientID     off 12  i64le Round     off 20  i64le NumSamples
//	off 28  i64le Version      off 36  i64le LastRound off 44  i64le RetryAfterMs
//	off 52  i64le AnchorRound  (delta base round; -1 when not a delta)
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
// Everything is written and parsed with fixed offsets — no reflection —
// and the decoder grows its buffer only as bytes actually arrive, so a
// corrupt length prefix cannot force a giant allocation.

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

// frameMagic guards binary frames against a peer that fell out of codec
// sync (e.g. a gob frame read as binary): the first payload byte of every
// v3 frame.
const frameMagic = 0xD3

// Frame flags.
const (
	flagState byte = 1 << iota // the state section is present
	flagFlate                  // the state section is flate-compressed
	flagDelta                  // state values are deltas against AnchorRound
	flagQuant                  // the state section is an fl.DeltaPayload
)

// fixedHeaderLen is the byte length of the fixed-offset frame header, and
// minFrameLen the smallest well-formed payload (header plus the four empty
// section length prefixes).
const (
	fixedHeaderLen = 60
	minFrameLen    = fixedHeaderLen + 4 + 4 + 4 + 4
)

// Codec is one session's negotiated wire configuration. A nil Codec (or
// one without CapBinary) means the unchanged gob protocol. Base, when
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

// Binary reports whether the session speaks binary frames.
func (c *Codec) Binary() bool { return c != nil && c.caps&CapBinary != 0 }

// Caps returns the negotiated capability bitmask (0 for a gob session).
func (c *Codec) Caps() uint32 {
	if c == nil {
		return 0
	}
	return c.caps
}

func (c *Codec) has(cap uint32) bool { return c != nil && c.caps&cap != 0 }

// QuantKind returns the negotiated upload quantization width (QuantNone on
// gob or unquantized sessions).
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
// used on /healthz ("gob", "binary", "binary+flate+int8+topk+delta", ...).
func CapsLabel(caps uint32) string {
	if caps&CapBinary == 0 {
		return "gob"
	}
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
// session stays gob), and top-k is meaningful only with quantization.
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

// WriteMessageWith encodes msg with the session codec: binary frames after
// a v3 negotiation, the classic gob frames otherwise.
func WriteMessageWith(w io.Writer, msg *Message, c *Codec) error {
	if !c.Binary() {
		return WriteMessage(w, msg)
	}
	return writeBinary(w, msg, c)
}

// ReadMessageWith decodes one frame with the session codec into msg,
// reusing msg's State backing array like ReadMessageInto. Delta and
// quantized payloads are reconstructed against the codec's anchor states,
// so msg.State always carries the full absolute vector on return.
func ReadMessageWith(r io.Reader, msg *Message, c *Codec) error {
	if !c.Binary() {
		return ReadMessageInto(r, msg)
	}
	return readBinary(r, msg, c)
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

// appendU32 / appendU64 are little-endian fixed-width appends.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeQuantSection serializes a validated fl.DeltaPayload as the frame's
// state section.
func encodeQuantSection(sec []byte, p *fl.DeltaPayload) []byte {
	sparse := byte(0)
	if p.Indices != nil {
		sparse = 1
	}
	sec = append(sec, byte(p.Kind), sparse)
	sec = appendU32(sec, uint32(p.Dim))
	sec = appendU32(sec, uint32(len(p.Q)))
	sec = appendU64(sec, math.Float64bits(p.Lo))
	sec = appendU64(sec, math.Float64bits(p.Hi))
	for _, ix := range p.Indices {
		sec = appendU32(sec, ix)
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
				sec = appendU64(sec, math.Float64bits(v)^math.Float64bits(prev[i]))
			}
			return sec, flags | flagDelta, msg.Round - 1, nil
		}
		telWireDeltaMisses.Inc()
	}
	for _, v := range msg.State {
		sec = appendU64(sec, math.Float64bits(v))
	}
	return sec, flags, -1, nil
}

// writeBinary encodes msg as one v3 binary frame (single Write, like the
// gob path).
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
	b := buf.Bytes()[:0]
	b = append(b, 0, 0, 0, 0) // length prefix, patched below
	b = append(b, frameMagic, byte(msg.Kind), flags, 0)
	b = appendU64(b, uint64(int64(msg.ClientID)))
	b = appendU64(b, uint64(int64(msg.Round)))
	b = appendU64(b, uint64(int64(msg.NumSamples)))
	b = appendU64(b, uint64(int64(msg.Version)))
	b = appendU64(b, uint64(int64(msg.LastRound)))
	b = appendU64(b, uint64(int64(msg.RetryAfterMs)))
	b = appendU64(b, uint64(int64(anchorRound)))
	b = appendU32(b, uint32(len(msg.Err)))
	b = append(b, msg.Err...)
	b = appendU32(b, uint32(len(msg.Cohort)))
	for _, id := range msg.Cohort {
		if id < 0 || id > math.MaxInt32 {
			return fmt.Errorf("flnet: encode %v: cohort id %d does not fit int32", msg.Kind, id)
		}
		b = appendU32(b, uint32(id))
	}
	b = appendU32(b, uint32(rawLen))
	b = appendU32(b, uint32(len(stored)))
	b = append(b, stored...)
	if len(b)-4 > maxFrameBytes {
		return fmt.Errorf("flnet: encode %v: frame length %d exceeds %d", msg.Kind, len(b)-4, maxFrameBytes)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("flnet: write payload: %w", err)
	}
	telTxFrames.Inc()
	telTxBytes.Add(int64(len(b)))
	return nil
}

// readBinary decodes one v3 binary frame into msg, reconstructing delta
// and quantized payloads against the codec's anchors. Every length is
// bounds-checked before it is believed, and the payload buffer grows only
// as bytes arrive (readPayload), so corrupt frames fail cheaply.
func readBinary(r io.Reader, msg *Message, c *Codec) error {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("flnet: read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[:])
	if n < minFrameLen || n > maxFrameBytes {
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
	msg.ClientID = int(int64(binary.LittleEndian.Uint64(payload[4:])))
	msg.Round = int(int64(binary.LittleEndian.Uint64(payload[12:])))
	msg.NumSamples = int(int64(binary.LittleEndian.Uint64(payload[20:])))
	msg.Version = int(int64(binary.LittleEndian.Uint64(payload[28:])))
	msg.LastRound = int(int64(binary.LittleEndian.Uint64(payload[36:])))
	msg.RetryAfterMs = int(int64(binary.LittleEndian.Uint64(payload[44:])))
	anchorRound := int(int64(binary.LittleEndian.Uint64(payload[52:])))

	rest := payload[fixedHeaderLen:]
	errLen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if errLen < 0 || errLen > len(rest) {
		return fmt.Errorf("flnet: error text length %d out of range", errLen)
	}
	if errLen > 0 {
		msg.Err = string(rest[:errLen])
		rest = rest[errLen:]
	}
	if len(rest) < 4 {
		return fmt.Errorf("flnet: frame truncated before cohort")
	}
	cohortN := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if cohortN < 0 || cohortN > len(rest)/4 {
		return fmt.Errorf("flnet: cohort count %d out of range", cohortN)
	}
	if cohortN > 0 {
		msg.Cohort = make([]int, cohortN)
		for i := range msg.Cohort {
			id := binary.LittleEndian.Uint32(rest[4*i:])
			if id > math.MaxInt32 {
				return fmt.Errorf("flnet: cohort id %d does not fit int32", id)
			}
			msg.Cohort[i] = int(id)
		}
		rest = rest[4*cohortN:]
	}
	if len(rest) < 8 {
		return fmt.Errorf("flnet: frame truncated before state section")
	}
	rawLen := int(binary.LittleEndian.Uint32(rest[:4]))
	storedLen := int(binary.LittleEndian.Uint32(rest[4:8]))
	rest = rest[8:]
	if storedLen != len(rest) {
		return fmt.Errorf("flnet: state section has %d stored bytes, frame carries %d", storedLen, len(rest))
	}
	if rawLen < 0 || rawLen > maxFrameBytes {
		return fmt.Errorf("flnet: state section length %d out of range", rawLen)
	}

	if flags&flagState != 0 {
		sec := rest
		if flags&flagFlate != 0 {
			raw, rbp, err := inflate(rest, rawLen)
			if err != nil {
				return fmt.Errorf("flnet: decode %v: %w", kind, err)
			}
			defer putReadBuf(rbp)
			sec = raw
		} else if rawLen != storedLen {
			return fmt.Errorf("flnet: uncompressed state section stored %d bytes, declared %d", storedLen, rawLen)
		}
		if err := decodeStateSection(msg, sec, flags, anchorRound, c); err != nil {
			return fmt.Errorf("flnet: decode %v: %w", kind, err)
		}
	} else if storedLen != 0 || rawLen != 0 {
		return fmt.Errorf("flnet: stateless frame carries a %d-byte state section", storedLen)
	}
	telRxFrames.Inc()
	telRxBytes.Add(int64(n) + 4)
	return nil
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
	for i := range msg.State {
		msg.State[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
	return nil
}

// WireBytesTotals returns the process-lifetime wire byte counters
// (headers included, both codecs); the wire bench and the byte-drop
// acceptance test difference them around a federation.
func WireBytesTotals() (tx, rx int64) {
	return telTxBytes.Value(), telRxBytes.Value()
}
