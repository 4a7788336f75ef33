// Package checkpoint persists federated-learning state so middleware
// processes can stop and resume: the server's global model snapshot (plus
// the quarantine state of the Byzantine update screen), and — specific to
// DINAR — each client's private-layer store, whose loss would otherwise
// cost the client its personalization (θᵖ* is never on the server, by
// design).
//
// A checkpoint file is a CRC32-checksummed binary envelope around a
// fixed-layout little-endian payload (the layout tables are in envelope.go),
// written with the same binenc primitives as the flnet frames; maps are
// encoded in ascending key order, so equal state always yields equal bytes.
// The file helpers write durably — fsync on the file and its parent
// directory around the atomic rename — and chain generations: every save
// rotates the previous newest file into a ".g<generation>" sibling,
// retaining the last DefaultRetain generations, so LoadLatestValid can
// detect a torn or corrupted head and fall back to the newest intact
// generation.
package checkpoint

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/binenc"
)

// FormatVersion is the current on-disk format version; files of any other
// version are refused with an "unsupported version" error.
const FormatVersion = 3

// QuarantineState checkpoints the Byzantine update screen so quarantine
// penalties and offense counts survive a server restart (a poisoner must
// not be paroled by crashing the server).
type QuarantineState struct {
	// Offenses counts rejected updates per client id.
	Offenses map[int]int
	// BlockedUntil maps a quarantined client id to the last round
	// (inclusive) its updates are excluded.
	BlockedUntil map[int]int
	// Norms is the running window of accepted delta norms backing the
	// clip/reject bound.
	Norms []float64
}

// Snapshot is a server-side global-model checkpoint.
type Snapshot struct {
	// Version is the format version of the file the snapshot was loaded
	// from (set by Load).
	Version int
	// Generation is the position in the checkpoint chain (chosen by
	// SaveFile, reported by Load; 0 for stream saves).
	Generation uint64
	// Dataset names the dataset/model configuration the state belongs to.
	Dataset string
	// Round is the number of completed FL rounds.
	Round int
	// State is the global model state vector.
	State []float64
	// Quarantine is the update screen's reputation state at Round, nil
	// when screening is disabled.
	Quarantine *QuarantineState

	// SampleSeed and SampleSize record the per-round client-sampling
	// configuration, so a resumed server draws bit-identical cohorts for
	// the remaining rounds (zero when sampling is off).
	SampleSeed int64
	SampleSize int
	// Async holds updates that arrived after their round closed and were
	// buffered for staleness-weighted aggregation in a later round. Saved
	// on graceful drain so crash-resume replays them; nil when async mode
	// is off.
	Async []AsyncUpdate
	// StreamNorms is the streaming norm-bound aggregator's trailing
	// accepted-norm window (nil unless that aggregator is active).
	StreamNorms []float64
	// Wire records the server's negotiated-codec configuration and the
	// last canonical broadcast state, so a resumed server keeps honoring
	// in-flight codec negotiations: the quantization seed stays stable
	// (clients reconstruct with it) and the broadcast delta chain resumes
	// from the exact state still-running clients hold. Nil when the server
	// offers no quantization or delta codec.
	Wire *WireState
}

// WireState is the wire-codec portion of a Snapshot.
type WireState struct {
	// Compress, Quantize, TopK, and Delta mirror the ServerConfig codec
	// offer the checkpoint was written under.
	Compress bool
	Quantize string
	TopK     float64
	Delta    bool
	// QuantSeed seeds stochastic quantization; a resumed server adopts it
	// (and refuses a conflicting configured seed) the way SampleSeed works.
	QuantSeed int64
	// BcastRound/Bcast are the round and full state of the last canonical
	// broadcast — the delta/quantization anchor clients hold — so the
	// resumed server's broadcast ring can diff against it.
	BcastRound int
	Bcast      []float64
}

// AsyncUpdate is one buffered late update in a Snapshot.
type AsyncUpdate struct {
	// ClientID is the sender.
	ClientID int
	// Round is the round the update was trained against.
	Round int
	// NumSamples is the sender's local-dataset weight.
	NumSamples int
	// State is the uploaded state vector.
	State []float64
}

// Snapshot payload flags: which optional sections follow the fixed part.
const (
	snapQuarantine byte = 1 << iota
	snapWire
)

// WireState bits.
const (
	wireCompress byte = 1 << iota
	wireDelta
)

// asyncFixedBytes is an encoded AsyncUpdate with an empty state: three i64s
// and the state's count.
const asyncFixedBytes = 3*8 + 4

// snapshotSize is the exact payload length snapshotPayload streams.
func snapshotSize(s *Snapshot) int {
	n := 1 + 3*8 + 4 + len(s.Dataset) + 4 + 8*len(s.State) + 4 + 8*len(s.StreamNorms) + 4
	for i := range s.Async {
		n += asyncFixedBytes + 8*len(s.Async[i].State)
	}
	if q := s.Quarantine; q != nil {
		n += 4 + 16*len(q.Offenses) + 4 + 16*len(q.BlockedUntil) + 4 + 8*len(q.Norms)
	}
	if ws := s.Wire; ws != nil {
		n += 1 + 4 + len(ws.Quantize) + 3*8 + 4 + 8*len(ws.Bcast)
	}
	return n
}

// sortedKeys returns m's keys ascending — the order every map is written in.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// intMap writes a u32 count and the (key, value) i64 pairs of m in ascending
// key order.
func (st *stream) intMap(m map[int]int) {
	st.u32(uint32(len(m)))
	for _, k := range sortedKeys(m) {
		st.int(k)
		st.int(m[k])
	}
}

// readIntMap reads what intMap wrote. Keys must ascend strictly, so a
// payload has one valid encoding and a duplicate key cannot drop an entry.
func readIntMap(rd *binenc.Reader) map[int]int {
	n := rd.Count(16)
	if n == 0 {
		return nil
	}
	m := make(map[int]int, n)
	prev := 0
	for i := 0; i < n; i++ {
		k, v := rd.Int(), rd.Int()
		if i > 0 && k <= prev {
			rd.Failf("map key %d after %d: keys must ascend", k, prev)
		}
		m[k], prev = v, k
	}
	return m
}

// snapshotPayload describes the envelope of s: the fields go out in the
// layout's order straight from where they lie, the state-sized sections
// (State, Async, Wire.Bcast) included, so s must hold still until the write
// is done.
func snapshotPayload(s *Snapshot) (payload, error) {
	if s == nil || len(s.State) == 0 {
		return payload{}, fmt.Errorf("checkpoint: empty snapshot")
	}
	return newPayload(kindSnapshot, snapshotSize(s), func(st *stream) {
		var flags byte
		if s.Quarantine != nil {
			flags |= snapQuarantine
		}
		if s.Wire != nil {
			flags |= snapWire
		}
		st.u8(flags)
		st.int(s.Round)
		st.u64(uint64(s.SampleSeed))
		st.int(s.SampleSize)
		st.str(s.Dataset)
		st.f64s(s.State)
		st.f64s(s.StreamNorms)
		st.u32(uint32(len(s.Async)))
		for i := range s.Async {
			au := &s.Async[i]
			st.int(au.ClientID)
			st.int(au.Round)
			st.int(au.NumSamples)
			st.f64s(au.State)
		}
		if q := s.Quarantine; q != nil {
			st.intMap(q.Offenses)
			st.intMap(q.BlockedUntil)
			st.f64s(q.Norms)
		}
		if ws := s.Wire; ws != nil {
			var bits byte
			if ws.Compress {
				bits |= wireCompress
			}
			if ws.Delta {
				bits |= wireDelta
			}
			st.u8(bits)
			st.str(ws.Quantize)
			st.u64(math.Float64bits(ws.TopK))
			st.u64(uint64(ws.QuantSeed))
			st.int(ws.BcastRound)
			st.f64s(ws.Bcast)
		}
	})
}

// decodeSnapshot parses a CRC-verified snapshot payload. The CRC only
// proves the bytes are the ones written, not that a well-behaved writer
// produced them: every count is checked against the bytes remaining before
// it sizes an allocation, unknown flag bits are refused, and the payload
// must end exactly where its last field does.
func decodeSnapshot(payload []byte, gen uint64) (*Snapshot, error) {
	rd := binenc.NewReader(payload)
	flags := rd.U8()
	if unknown := flags &^ (snapQuarantine | snapWire); unknown != 0 {
		rd.Failf("unknown snapshot flags %#x", unknown)
	}
	s := &Snapshot{Version: FormatVersion, Generation: gen}
	s.Round = rd.Int()
	s.SampleSeed = int64(rd.U64())
	s.SampleSize = rd.Int()
	s.Dataset = rd.Str()
	s.State = rd.F64s()
	s.StreamNorms = rd.F64s()
	if n := rd.Count(asyncFixedBytes); n > 0 {
		s.Async = make([]AsyncUpdate, n)
		for i := range s.Async {
			au := &s.Async[i]
			au.ClientID = rd.Int()
			au.Round = rd.Int()
			au.NumSamples = rd.Int()
			au.State = rd.F64s()
		}
	}
	if flags&snapQuarantine != 0 {
		q := &QuarantineState{}
		q.Offenses = readIntMap(rd)
		q.BlockedUntil = readIntMap(rd)
		q.Norms = rd.F64s()
		s.Quarantine = q
	}
	if flags&snapWire != 0 {
		ws := &WireState{}
		bits := rd.U8()
		if unknown := bits &^ (wireCompress | wireDelta); unknown != 0 {
			rd.Failf("unknown wire-state bits %#x", unknown)
		}
		ws.Compress = bits&wireCompress != 0
		ws.Delta = bits&wireDelta != 0
		ws.Quantize = rd.Str()
		ws.TopK = rd.F64()
		ws.QuantSeed = int64(rd.U64())
		ws.BcastRound = rd.Int()
		ws.Bcast = rd.F64s()
		s.Wire = ws
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, err)
	}
	if len(s.State) == 0 {
		return nil, fmt.Errorf("%w: snapshot has no state", ErrCorrupt)
	}
	return s, nil
}

// Save writes the snapshot to w as one envelope, at generation
// s.Generation.
func Save(w io.Writer, s *Snapshot) error {
	p, err := snapshotPayload(s)
	if err != nil {
		return err
	}
	return p.writeTo(w, s.Generation)
}

// Load reads one CRC-verified snapshot envelope from r.
func Load(r io.Reader) (*Snapshot, error) { return load(r, kindSnapshot, decodeSnapshot) }

// SaveFile writes the snapshot durably at the head of the checkpoint chain
// at path (atomic rename, fsync on file and directory), rotating the
// previous newest generation into a ".g<gen>" sibling and retaining the
// last DefaultRetain generations.
func SaveFile(path string, s *Snapshot) error {
	p, err := snapshotPayload(s)
	if err != nil {
		return err
	}
	return saveChain(path, p)
}

// LoadFile reads the snapshot at path.
func LoadFile(path string) (*Snapshot, error) {
	return loadFile(path, kindSnapshot, decodeSnapshot)
}

// LoadLatestValid walks the checkpoint chain at path newest-first and
// returns the first snapshot that decodes and CRC-verifies, plus the paths
// of corrupt files skipped on the way. A missing chain reports
// os.ErrNotExist; a chain with no intact generation reports every failure.
func LoadLatestValid(path string) (*Snapshot, []string, error) {
	return loadLatestValid(path, kindSnapshot, decodeSnapshot)
}

// PrivateLayers is a client-side checkpoint of DINAR's private-layer store
// (θᵖ* per protected layer).
type PrivateLayers struct {
	// Version is the format version of the file the store was loaded from
	// (set by LoadPrivate).
	Version int
	// Generation is the position in the checkpoint chain (chosen by
	// SavePrivateFile, reported by LoadPrivate; 0 for stream saves).
	Generation uint64
	// ClientID identifies the owning client.
	ClientID int
	// Round is the last round the stored layers belong to.
	Round int
	// Layers maps logical layer index to the stored parameters.
	Layers map[int][]float64
}

// layerFixedBytes is an encoded layer with no parameters: its i64 index and
// the parameters' count.
const layerFixedBytes = 8 + 4

// privatePayload describes the envelope of p, like snapshotPayload; layers
// go out in ascending index order.
func privatePayload(p *PrivateLayers) (payload, error) {
	if p == nil || len(p.Layers) == 0 {
		return payload{}, fmt.Errorf("checkpoint: empty private store")
	}
	size := 2*8 + 4
	for _, params := range p.Layers {
		size += layerFixedBytes + 8*len(params)
	}
	return newPayload(kindPrivate, size, func(st *stream) {
		st.int(p.ClientID)
		st.int(p.Round)
		st.u32(uint32(len(p.Layers)))
		for _, layer := range sortedKeys(p.Layers) {
			st.int(layer)
			st.f64s(p.Layers[layer])
		}
	})
}

// decodePrivate parses a CRC-verified private-store payload with the same
// discipline as decodeSnapshot.
func decodePrivate(payload []byte, gen uint64) (*PrivateLayers, error) {
	rd := binenc.NewReader(payload)
	p := &PrivateLayers{Version: FormatVersion, Generation: gen}
	p.ClientID = rd.Int()
	p.Round = rd.Int()
	n := rd.Count(layerFixedBytes)
	p.Layers = make(map[int][]float64, n)
	prev := 0
	for i := 0; i < n; i++ {
		layer := rd.Int()
		if i > 0 && layer <= prev {
			rd.Failf("layer %d after %d: layers must ascend", layer, prev)
		}
		p.Layers[layer], prev = rd.F64s(), layer
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: private-store payload: %v", ErrCorrupt, err)
	}
	if len(p.Layers) == 0 {
		return nil, fmt.Errorf("%w: private store has no layers", ErrCorrupt)
	}
	return p, nil
}

// SavePrivate writes a private-layer store to w as one envelope, at
// generation p.Generation.
func SavePrivate(w io.Writer, p *PrivateLayers) error {
	pl, err := privatePayload(p)
	if err != nil {
		return err
	}
	return pl.writeTo(w, p.Generation)
}

// LoadPrivate reads one CRC-verified private-layer store envelope from r.
func LoadPrivate(r io.Reader) (*PrivateLayers, error) { return load(r, kindPrivate, decodePrivate) }

// SavePrivateFile writes a private-layer store durably at the head of the
// chain at path, like SaveFile.
func SavePrivateFile(path string, p *PrivateLayers) error {
	pl, err := privatePayload(p)
	if err != nil {
		return err
	}
	return saveChain(path, pl)
}

// LoadPrivateFile reads the private-layer store at path.
func LoadPrivateFile(path string) (*PrivateLayers, error) {
	return loadFile(path, kindPrivate, decodePrivate)
}

// LoadLatestValidPrivate walks the private-store chain at path newest-first
// like LoadLatestValid.
func LoadLatestValidPrivate(path string) (*PrivateLayers, []string, error) {
	return loadLatestValid(path, kindPrivate, decodePrivate)
}
