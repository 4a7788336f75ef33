package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binenc"
)

// fullSnapshot populates every field of a Snapshot, with ≥3 entries in each
// map so a map-order-dependent encoder cannot pass by luck.
func fullSnapshot() *Snapshot {
	return &Snapshot{
		Dataset:     "purchase100",
		Round:       12,
		State:       []float64{1, -2.5, math.Pi, 0},
		SampleSeed:  -77,
		SampleSize:  5,
		StreamNorms: []float64{0.5, 0.25},
		Async: []AsyncUpdate{
			{ClientID: 3, Round: 10, NumSamples: 40, State: []float64{9, 8, 7, 6}},
			{ClientID: 1, Round: 11, NumSamples: 7},
		},
		Quarantine: &QuarantineState{
			Offenses:     map[int]int{9: 1, 2: 3, 5: 2, -1: 4},
			BlockedUntil: map[int]int{2: 14, 9: 13, 5: 20},
			Norms:        []float64{1.5, 2.5, 3.5},
		},
		Wire: &WireState{
			Compress: true, Quantize: "int8", TopK: 0.1, Delta: true,
			QuantSeed: 42, BcastRound: 11, Bcast: []float64{4, 3, 2, 1},
		},
	}
}

func fullPrivate() *PrivateLayers {
	return &PrivateLayers{
		ClientID: 6,
		Round:    3,
		Layers:   map[int][]float64{7: {1, 2}, 0: {3}, 4: {4, 5, 6}, 2: nil},
	}
}

// ramp is n deterministic values; the big fixtures use it for sections that
// span several of the writer's chunks and straddle their boundaries.
func ramp(n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)) * scale
	}
	return out
}

// bigSnapshot's State, async update and Bcast each cross chunk boundaries
// mid-value (State starts at payload offset 45), and the fifth boundary falls
// inside the wire section's "int8", which therefore opens a fresh chunk.
func bigSnapshot() *Snapshot {
	s := fullSnapshot()
	s.Dataset = "purchase100x"
	s.State = ramp(90001, 3)
	s.Async[0].State = ramp(41036, -1.5)
	s.Wire.Bcast = ramp(50000, 0.125)
	return s
}

func bigPrivate() *PrivateLayers {
	p := fullPrivate()
	p.Layers[4] = ramp(70003, 2)
	return p
}

// snapshotImage and privateImage encode a whole envelope at generation gen
// through the plain-stream writer.
func snapshotImage(t testing.TB, s *Snapshot, gen uint64) []byte {
	t.Helper()
	p, err := snapshotPayload(s)
	if err != nil {
		t.Fatal(err)
	}
	return envelopeImage(t, p, gen)
}

func privateImage(t testing.TB, pl *PrivateLayers, gen uint64) []byte {
	t.Helper()
	p, err := privatePayload(pl)
	if err != nil {
		t.Fatal(err)
	}
	return envelopeImage(t, p, gen)
}

func envelopeImage(t testing.TB, p payload, gen uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.writeTo(&buf, gen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotFullRoundTrip round-trips every field, optional sections
// present and absent.
func TestSnapshotFullRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"full":    fullSnapshot(),
		"minimal": {Dataset: "d", State: []float64{1}},
		"big":     bigSnapshot(),
	} {
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := *s
		want.Version = FormatVersion
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, &want)
		}
	}
	p := fullPrivate()
	var buf bytes.Buffer
	if err := SavePrivate(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrivate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := *p
	want.Version = FormatVersion
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("private round trip\n got %+v\nwant %+v", got, &want)
	}
}

// TestImageExactSize pins the length contract: the header promises the
// payload's length before a byte of it is encoded, so a saved file is exactly
// the header plus the computed size, and a body that encodes to any other
// length fails the save.
func TestImageExactSize(t *testing.T) {
	for name, s := range map[string]*Snapshot{"full": fullSnapshot(), "big": bigSnapshot()} {
		if img := snapshotImage(t, s, 1); len(img) != envHeaderSize+snapshotSize(s) {
			t.Fatalf("%s snapshot image is %d bytes, sized for %d", name, len(img), envHeaderSize+snapshotSize(s))
		}
	}
	p, err := snapshotPayload(fullSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	p.size++
	if err := p.writeTo(io.Discard, 1); err == nil || !strings.Contains(err.Error(), "sized at") {
		t.Fatalf("a payload one byte short of its declared size saved: %v", err)
	}
}

// savedBytes saves v twice into fresh chains and returns both head files.
func savedBytes(t *testing.T, save func(path string) error) (first, second []byte) {
	t.Helper()
	out := make([][]byte, 2)
	for i := range out {
		path := filepath.Join(t.TempDir(), "c.ckpt")
		if err := save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out[0], out[1]
}

// TestSnapshotBytesDeterministic saves equal state twice: the files must be
// byte-identical (maps are written in ascending key order) — and identical to
// the image the one-allocation encoder before PR 24 wrote, small and across
// chunk boundaries: streaming the file changed how its bytes are produced,
// not one of them.
func TestSnapshotBytesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap func() *Snapshot // fresh maps per save: Go randomizes iteration order per map value
		size int
		want string
	}{
		{"full", fullSnapshot, 427, "da7b64e30cb6f3413e8a9bb5a65be5c12c6204839308f609dd59e4ef1abf4a01"},
		{"big", bigSnapshot, 1448628, "e3dfe630f5509ab9d7fe89dfc1f66191ae31a9d52bc007810a466ab28b2238d9"},
	} {
		first, second := savedBytes(t, func(path string) error { return SaveFile(path, tc.snap()) })
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two saves of equal snapshots differ on disk", tc.name)
		}
		checkFileDigest(t, tc.name, first, tc.size, tc.want)
		if !bytes.Equal(first, snapshotImage(t, tc.snap(), 1)) {
			t.Fatalf("%s: the file and the stream writer disagree", tc.name)
		}
	}
}

// TestPrivateLayersBytesDeterministic is the same property for the client's
// private-layer store.
func TestPrivateLayersBytesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func() *PrivateLayers
		size  int
		want  string
	}{
		{"full", fullPrivate, 138, "53eda226ac723ef13a17e14b57ecdca798361775323fa77dd0046b785122ea1b"},
		{"big", bigPrivate, 560138, "d4ee218cb5c27ac99c3443fb151f54e01511c4cb01718b50e98806692373312f"},
	} {
		first, second := savedBytes(t, func(path string) error { return SavePrivateFile(path, tc.store()) })
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two saves of equal private stores differ on disk", tc.name)
		}
		checkFileDigest(t, tc.name, first, tc.size, tc.want)
		if !bytes.Equal(first, privateImage(t, tc.store(), 1)) {
			t.Fatalf("%s: the file and the stream writer disagree", tc.name)
		}
	}
}

func checkFileDigest(t *testing.T, name string, file []byte, size int, want string) {
	t.Helper()
	sum := sha256.Sum256(file)
	if got := hex.EncodeToString(sum[:]); len(file) != size || got != want {
		t.Fatalf("%s: saved file is %d bytes with digest %s, want %d and %s", name, len(file), got, size, want)
	}
}

// TestGoldenFileDigests pins the on-disk format: a change to either layout
// must change FormatVersion and these digests together, never silently.
func TestGoldenFileDigests(t *testing.T) {
	snap, priv := snapshotImage(t, fullSnapshot(), 4), privateImage(t, fullPrivate(), 4)
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"snapshot", snap, goldenSnapshotSHA256},
		{"private", priv, goldenPrivateSHA256},
	} {
		sum := sha256.Sum256(tc.img)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s image digest %s, want %s (format drift: bump FormatVersion)", tc.name, got, tc.want)
		}
	}
}

const (
	goldenSnapshotSHA256 = "2ae8bd0fecb7f93117b9269939ca9d480f769faba4dc7004f09c4cceba8f0b04"
	goldenPrivateSHA256  = "437eda90ef7df22e6e0127311e30fe0cad9aea9cb5b1909d052052fb9919a4db"
)

// snapshotBytes and privateBytes encode just the payload bytes.
func snapshotBytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	return snapshotImage(t, s, 1)[envHeaderSize:]
}

func privateBytes(t testing.TB, p *PrivateLayers) []byte {
	t.Helper()
	return privateImage(t, p, 1)[envHeaderSize:]
}

// TestHostilePayloads feeds the payload decoders bytes a CRC would happily
// vouch for: truncated at every offset (so at every section boundary),
// counts beyond the bytes remaining, a count whose byte size overflows 32
// bits, unknown flag bits, non-ascending map keys and trailing bytes. Each
// must fail with ErrCorrupt before allocating what the lie asks for.
func TestHostilePayloads(t *testing.T) {
	snap := snapshotBytes(t, fullSnapshot())
	priv := privateBytes(t, fullPrivate())
	decodeSnap := func(b []byte) error { _, err := decodeSnapshot(b, 1); return err }
	decodePriv := func(b []byte) error { _, err := decodePrivate(b, 1); return err }

	for cut := 0; cut < len(snap); cut++ {
		if err := decodeSnap(snap[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot payload cut at %d/%d: %v", cut, len(snap), err)
		}
	}
	for cut := 0; cut < len(priv); cut++ {
		if err := decodePriv(priv[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("private payload cut at %d/%d: %v", cut, len(priv), err)
		}
	}

	patch := func(src []byte, off int, v uint32) []byte {
		b := append([]byte(nil), src...)
		copy(b[off:], binenc.AppendU32(nil, v))
		return b
	}
	stateCount := 1 + 3*8 + 4 + len("purchase100") // offset of State's count
	cases := []struct {
		name    string
		decode  func([]byte) error
		payload []byte
		wantErr string
	}{
		{"unknown snapshot flag", decodeSnap, append([]byte{snap[0] | 0x80}, snap[1:]...), "unknown snapshot flags"},
		{"dataset length beyond payload", decodeSnap, patch(snap, 1+3*8, uint32(len(snap))), "truncated"},
		{"state count beyond payload", decodeSnap, patch(snap, stateCount, uint32(len(snap))), "truncated"},
		{"state count × 8 overflows u32", decodeSnap, patch(snap, stateCount, 1<<29+1), "truncated"},
		{"state count max", decodeSnap, patch(snap, stateCount, math.MaxUint32), "truncated"},
		{"zero state", decodeSnap, make([]byte, snapshotSize(&Snapshot{})), "no state"},
		{"snapshot trailing byte", decodeSnap, append(append([]byte(nil), snap...), 0), "trailing"},
		{"layer count beyond payload", decodePriv, patch(priv, 16, uint32(len(priv))), "truncated"},
		{"layer count max", decodePriv, patch(priv, 16, math.MaxUint32), "truncated"},
		{"layers out of order", decodePriv, func() []byte {
			b := append([]byte(nil), priv...)
			b[16+4] = 9 // first layer index 0 → 9, ahead of 2, 4, 7
			return b
		}(), "must ascend"},
		{"private trailing byte", decodePriv, append(append([]byte(nil), priv...), 0), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.payload)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("decode = %v, want ErrCorrupt mentioning %q", err, tc.wantErr)
			}
		})
	}

	// A lie behind a valid CRC: Load must refuse it too, and a duplicated
	// quarantine key must not silently drop an entry.
	dup := &Snapshot{State: []float64{1}, Quarantine: &QuarantineState{Offenses: map[int]int{1: 1, 2: 2}}}
	img := snapshotImage(t, dup, 1)
	img[len(img)-4-4-16] = 1 // second Offenses key 2 → 1 (BlockedUntil and Norms counts follow)
	binary.BigEndian.PutUint32(img[envCRCOffset:], crc32.ChecksumIEEE(img[envHeaderSize:]))
	if _, err := Load(bytes.NewReader(img)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "must ascend") {
		t.Fatalf("Load of a CRC-valid duplicate-key snapshot = %v, want ErrCorrupt", err)
	}
}

// FuzzSnapshotPayload throws arbitrary bytes straight at the payload
// decoders (no CRC in the way): they must return a value or an error, never
// panic, never allocate past the input's size class, and whatever they
// accept must re-encode to exactly the bytes it was decoded from — the
// format has one encoding per value.
func FuzzSnapshotPayload(f *testing.F) {
	f.Add(snapshotBytes(f, fullSnapshot()))
	f.Add(snapshotBytes(f, &Snapshot{Dataset: "d", State: []float64{1}}))
	f.Add(privateBytes(f, fullPrivate()))
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if s, err := decodeSnapshot(payload, 0); err == nil {
			if !bytes.Equal(snapshotBytes(t, s), payload) {
				t.Fatalf("accepted snapshot payload is not canonical")
			}
		}
		if p, err := decodePrivate(payload, 0); err == nil {
			if !bytes.Equal(privateBytes(t, p), payload) {
				t.Fatalf("accepted private payload is not canonical")
			}
		}
	})
}
