package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/binenc"
)

// The envelope makes torn or bit-rotted files *detected* instead of
// half-decoded. Its header is big-endian:
//
//	off  0  [4]byte "DNCK"
//	off  4  u8      format version (3)
//	off  5  u8      kind (1 = server snapshot, 2 = private-layer store)
//	off  6  u64be   generation
//	off 14  u32be   payload length
//	off 18  u32be   IEEE CRC-32 of the payload
//	off 22          payload
//
// The payload is little-endian binenc: i64le integers, f64le bit patterns;
// "str" is a u32le length and its bytes, "f64s" a u32le count and that many
// f64le, "map" a u32le count and that many {i64le key, i64le value} in
// ascending key order. A snapshot is
//
//	off  0  u8     flags (1 = quarantine section, 2 = wire section)
//	off  1  i64le  Round
//	off  9  i64le  SampleSeed
//	off 17  i64le  SampleSize
//	off 25  str Dataset, f64s State, f64s StreamNorms
//	        u32le n, n × {i64le ClientID, i64le Round, i64le NumSamples, f64s State}  (Async)
//	        iff flagged: map Offenses, map BlockedUntil, f64s Norms
//	        iff flagged: u8 bits (1 = Compress, 2 = Delta), str Quantize, f64le TopK,
//	                     i64le QuantSeed, i64le BcastRound, f64s Bcast
//
// and a private-layer store is
//
//	off  0  i64le  ClientID
//	off  8  i64le  Round
//	off 16  u32le n, n × {i64le layer, f64s parameters}, ascending layer
//
// Files are written atomically (temp + rename) and durably (fsync on the
// file and its parent directory), and each save rotates the previous newest
// file into a ".g<generation>" sibling so LoadLatestValid can fall back to
// the newest intact generation when the head of the chain is corrupt.

// envelope constants.
const (
	envMagic      = "DNCK"
	envHeaderSize = 4 + 1 + 1 + 8 + 4 + 4
	envCRCOffset  = envHeaderSize - 4

	kindSnapshot byte = 1
	kindPrivate  byte = 2

	// maxPayloadBytes bounds a payload against corrupt length fields
	// (1 GiB is far above any scaled model's state vector).
	maxPayloadBytes = 1 << 30
)

// DefaultRetain is how many checkpoint generations a chain keeps on disk:
// the newest (at the configured path) plus DefaultRetain-1 ".g<gen>"
// predecessors.
const DefaultRetain = 3

// ErrCorrupt wraps every integrity failure detected on an envelope (bad
// magic, truncated header or payload, CRC mismatch, a payload that does not
// parse), so callers can distinguish corruption from absence.
var ErrCorrupt = errors.New("checkpoint: corrupt envelope")

// chunkBytes is the size of the one buffer a save streams its payload
// through. A save allocates the chunk and drops it: nothing payload-sized is
// built, and nothing multi-megabyte is retained between saves to raise the GC
// heap goal for the whole process. 256 KiB stays in cache between encode,
// checksum and write; a 7.8 MB FCNN6 snapshot saved no faster through 64 KiB
// (four times the write calls) and no faster as one image.
const chunkBytes = 256 << 10

// payload describes one envelope's contents: its kind, its exact encoded
// length, and the function that streams its fields in file order.
type payload struct {
	kind byte
	size int
	body func(*stream)
}

// stream encodes a payload through one chunk into w, keeping the running
// CRC-32 and length of everything encoded. A nil w checksums only. The first
// write error sticks.
type stream struct {
	w   io.Writer
	b   []byte // the chunk: len bytes pending, cap chunkBytes
	sum uint32
	n   int
	err error
}

// write streams p into w as one envelope at generation gen — the header,
// carrying checksum sum, then the body through one chunk — and returns the
// payload's actual CRC-32. A nil w only computes it. It fails when the body
// did not encode exactly p.size bytes, the length the header promised.
func (p payload) write(w io.Writer, gen uint64, sum uint32) (uint32, error) {
	var hdr [envHeaderSize]byte
	copy(hdr[:4], envMagic)
	hdr[4], hdr[5] = FormatVersion, p.kind
	binary.BigEndian.PutUint64(hdr[6:14], gen)
	binary.BigEndian.PutUint32(hdr[14:18], uint32(p.size))
	binary.BigEndian.PutUint32(hdr[envCRCOffset:], sum)
	st := &stream{w: w, b: make([]byte, 0, chunkBytes)}
	if w != nil {
		_, st.err = w.Write(hdr[:])
	}
	p.body(st)
	st.flush()
	switch {
	case st.err != nil:
		return 0, fmt.Errorf("checkpoint: write: %w", st.err)
	case st.n != p.size:
		return 0, fmt.Errorf("checkpoint: payload encoded to %d bytes, sized at %d", st.n, p.size)
	}
	return st.sum, nil
}

// writeTo writes p to a plain stream, which cannot be patched afterwards: a
// first pass over the body computes the checksum the header carries, a
// second writes the envelope.
func (p payload) writeTo(w io.Writer, gen uint64) error {
	sum, err := p.write(nil, gen, 0)
	if err == nil {
		_, err = p.write(w, gen, sum)
	}
	return err
}

// writeFile writes p into f, an empty file, in a single pass: the header
// goes out with a zero checksum, the payload streams behind it from wherever
// its values lie, and the checksum is patched into place.
func (p payload) writeFile(f *os.File, gen uint64) error {
	sum, err := p.write(f, gen, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(binary.BigEndian.AppendUint32(nil, sum), envCRCOffset); err != nil {
		return fmt.Errorf("checkpoint: write checksum: %w", err)
	}
	return nil
}

func (st *stream) flush() {
	st.sum = crc32.Update(st.sum, crc32.IEEETable, st.b)
	st.n += len(st.b)
	if st.w != nil && st.err == nil {
		_, st.err = st.w.Write(st.b)
	}
	st.b = st.b[:0]
}

// room flushes the chunk unless n more bytes fit and returns the bytes free.
func (st *stream) room(n int) int {
	if cap(st.b)-len(st.b) < n {
		st.flush()
	}
	return cap(st.b) - len(st.b)
}

func (st *stream) u8(v byte)    { st.room(1); st.b = append(st.b, v) }
func (st *stream) u32(v uint32) { st.room(4); st.b = binenc.AppendU32(st.b, v) }
func (st *stream) u64(v uint64) { st.room(8); st.b = binenc.AppendU64(st.b, v) }
func (st *stream) int(v int)    { st.u64(uint64(int64(v))) }

// str writes a u32 length and the bytes of s whole (a string longer than
// the chunk grows it).
func (st *stream) str(s string) { st.room(4 + len(s)); st.b = binenc.AppendString(st.b, s) }

// f64s writes a u32 count and the values, reading vs where it lies a chunk
// at a time.
func (st *stream) f64s(vs []float64) {
	st.u32(uint32(len(vs)))
	for len(vs) > 0 {
		k := min(len(vs), st.room(8)/8)
		st.b = binenc.AppendRawF64s(st.b, vs[:k])
		vs = vs[k:]
	}
}

// newPayload refuses a payload whose length the header's u32 field (or the
// reader's bound) cannot carry.
func newPayload(kind byte, size int, body func(*stream)) (payload, error) {
	if size <= 0 || size > maxPayloadBytes {
		return payload{}, fmt.Errorf("checkpoint: payload length %d out of range", size)
	}
	return payload{kind: kind, size: size, body: body}, nil
}

// parseHeader validates an envelope header and returns its fields.
func parseHeader(hdr *[envHeaderSize]byte) (kind byte, gen uint64, n, sum uint32, err error) {
	if string(hdr[:4]) != envMagic {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[4] != FormatVersion {
		return 0, 0, 0, 0, fmt.Errorf("checkpoint: unsupported version %d (this build reads version %d)", hdr[4], FormatVersion)
	}
	return hdr[5], binary.BigEndian.Uint64(hdr[6:14]), binary.BigEndian.Uint32(hdr[14:18]), binary.BigEndian.Uint32(hdr[18:22]), nil
}

// readEnvelope reads one envelope of the wanted kind, verifying the CRC
// before the payload reaches any decoder.
func readEnvelope(r io.Reader, wantKind byte) (gen uint64, payload []byte, err error) {
	var hdr [envHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	kind, gen, n, sum, err := parseHeader(&hdr)
	if err != nil {
		return 0, nil, err
	}
	if kind != wantKind {
		return 0, nil, fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, kind, wantKind)
	}
	if n == 0 || n > maxPayloadBytes {
		return 0, nil, fmt.Errorf("%w: payload length %d out of range", ErrCorrupt, n)
	}
	// Read incrementally instead of pre-allocating n bytes: a corrupt
	// length field must not cost a giant allocation when the file is
	// actually tiny.
	payload, err = io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	}
	if uint32(len(payload)) != n {
		return 0, nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return gen, payload, nil
}

// --- durable file plumbing ---------------------------------------------

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tmpSuffix names the temp file a durable write of path goes through.
const tmpSuffix = ".tmp"

// WriteDurable writes what fill puts into the file to path atomically (temp
// + rename) and durably (fsync on the temp file, then on the parent directory
// after the rename). The chain's own writes stream an envelope through it,
// and so does any small file that must not be lost while the chains beside
// it survive (the service's job manifest).
func WriteDurable(path string, fill func(f *os.File) error) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// --- generation chain ---------------------------------------------------

// genPath names the retained copy of generation gen of the chain at path.
func genPath(path string, gen uint64) string {
	return fmt.Sprintf("%s.g%09d", path, gen)
}

// generationOf parses the generation from a ".g<gen>" sibling name; ok is
// false for the head file or unrelated names.
func generationOf(path, name string) (uint64, bool) {
	prefix := filepath.Base(path) + ".g"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// headerGen reads just the envelope header of path and returns its
// generation; ok is false for missing, other-version, or corrupt-header
// files.
func headerGen(path string, wantKind byte) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var hdr [envHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false
	}
	kind, gen, _, _, err := parseHeader(&hdr)
	return gen, err == nil && kind == wantKind
}

// siblingGenerations lists the generation numbers of retained ".g<gen>"
// files of the chain at path, ascending.
func siblingGenerations(path string) []uint64 {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := generationOf(path, e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// RemoveChain deletes every file of the chain at path — the head, the
// retained generations and the temp file of an interrupted write — and
// nothing else: a neighbouring chain whose name merely starts with path is
// not part of it. A chain that does not exist is not an error.
func RemoveChain(path string) error {
	var errs []error
	for _, name := range append(chainCandidates(path), path+tmpSuffix) {
		if err := os.Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// nextGeneration picks the generation for the next save: one past the
// newest generation visible anywhere in the chain (head or siblings).
func nextGeneration(path string, kind byte) uint64 {
	var newest uint64
	if gen, ok := headerGen(path, kind); ok && gen > newest {
		newest = gen
	}
	if gens := siblingGenerations(path); len(gens) > 0 {
		if g := gens[len(gens)-1]; g > newest {
			newest = g
		}
	}
	return newest + 1
}

// saveChain writes p as one new generation at the head of the chain: the
// previous head is rotated into its ".g<gen>" sibling, the new envelope is
// streamed into place durably, and generations beyond DefaultRetain are
// pruned.
func saveChain(path string, p payload) error {
	gen := nextGeneration(path, p.kind)
	// Rotate the previous head so it survives as a fallback generation; a
	// head with no readable generation has nothing to fall back to and is
	// replaced by the rename below.
	if prevGen, ok := headerGen(path, p.kind); ok {
		if err := os.Rename(path, genPath(path, prevGen)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: rotate: %w", err)
		}
	}
	if err := WriteDurable(path, func(f *os.File) error { return p.writeFile(f, gen) }); err != nil {
		return err
	}
	pruneGenerations(path)
	return nil
}

// pruneGenerations removes retained sibling files beyond DefaultRetain-1
// (the head file at path is the DefaultRetain-th generation). Best effort: a
// failed unlink never fails a save.
func pruneGenerations(path string) {
	gens := siblingGenerations(path)
	for _, gen := range gens[:max(0, len(gens)-(DefaultRetain-1))] {
		os.Remove(genPath(path, gen)) //nolint:errcheck // best-effort prune
	}
}

// chainCandidates lists the files of the chain at path to try when
// loading, newest first: the head, then retained generations descending.
func chainCandidates(path string) []string {
	out := []string{path}
	gens := siblingGenerations(path)
	for i := len(gens) - 1; i >= 0; i-- {
		out = append(out, genPath(path, gens[i]))
	}
	return out
}

// decoder parses a CRC-verified payload of one kind into its value.
type decoder[T any] func(payload []byte, gen uint64) (*T, error)

// load reads one envelope of the given kind from r and decodes it.
func load[T any](r io.Reader, kind byte, decode decoder[T]) (*T, error) {
	gen, payload, err := readEnvelope(r, kind)
	if err != nil {
		return nil, err
	}
	return decode(payload, gen)
}

// loadFile is load on the file at path.
func loadFile[T any](path string, kind byte, decode decoder[T]) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return load(f, kind, decode)
}

// loadLatestValid walks the chain newest-first and returns the first file
// that decodes and validates, plus the paths of the corrupt files it
// skipped. When no file of the chain exists at all the error wraps
// os.ErrNotExist; when files exist but none is intact the error reports
// every failure.
func loadLatestValid[T any](path string, kind byte, decode decoder[T]) (*T, []string, error) {
	var (
		skipped []string
		errs    []error
	)
	for _, cand := range chainCandidates(path) {
		v, err := loadFile(cand, kind, decode)
		if err == nil {
			return v, skipped, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		skipped = append(skipped, cand)
		errs = append(errs, fmt.Errorf("%s: %w", cand, err))
	}
	if errs == nil {
		return nil, nil, fmt.Errorf("checkpoint: no checkpoint at %s: %w", path, os.ErrNotExist)
	}
	return nil, skipped, fmt.Errorf("checkpoint: no intact generation at %s: %w", path, errors.Join(errs...))
}
