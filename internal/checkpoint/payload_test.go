package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// TestSnapshotFullRoundTrip round-trips every field, optional sections
// present and absent.
func TestSnapshotFullRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"full":    fullSnapshot(),
		"minimal": {Dataset: "d", State: []float64{1}},
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

// TestImageExactSize pins the single-allocation contract: the file image is
// allocated once at exactly its final size.
func TestImageExactSize(t *testing.T) {
	img, err := encodeSnapshot(fullSnapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != cap(img) || len(img) != envHeaderSize+snapshotSize(fullSnapshot()) {
		t.Fatalf("snapshot image len %d cap %d, sized for %d", len(img), cap(img), envHeaderSize+snapshotSize(fullSnapshot()))
	}
	img, err = encodePrivate(fullPrivate(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != cap(img) {
		t.Fatalf("private image len %d cap %d", len(img), cap(img))
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
// byte-identical (maps are written in ascending key order).
func TestSnapshotBytesDeterministic(t *testing.T) {
	// Fresh maps per save: Go randomizes iteration order per map value.
	first, second := savedBytes(t, func(path string) error { return SaveFile(path, fullSnapshot()) })
	if !bytes.Equal(first, second) {
		t.Fatal("two saves of equal snapshots differ on disk")
	}
}

// TestPrivateLayersBytesDeterministic is the same property for the client's
// private-layer store.
func TestPrivateLayersBytesDeterministic(t *testing.T) {
	first, second := savedBytes(t, func(path string) error { return SavePrivateFile(path, fullPrivate()) })
	if !bytes.Equal(first, second) {
		t.Fatal("two saves of equal private stores differ on disk")
	}
}

// TestGoldenFileDigests pins the on-disk format: a change to either layout
// must change FormatVersion and these digests together, never silently.
func TestGoldenFileDigests(t *testing.T) {
	snap, err := encodeSnapshot(fullSnapshot(), 4)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := encodePrivate(fullPrivate(), 4)
	if err != nil {
		t.Fatal(err)
	}
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

// snapshotPayload and privatePayload encode just the payload bytes.
func snapshotPayload(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	img, err := encodeSnapshot(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	return img[envHeaderSize:]
}

func privatePayload(t testing.TB, p *PrivateLayers) []byte {
	t.Helper()
	img, err := encodePrivate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return img[envHeaderSize:]
}

// TestHostilePayloads feeds the payload decoders bytes a CRC would happily
// vouch for: truncated at every offset (so at every section boundary),
// counts beyond the bytes remaining, a count whose byte size overflows 32
// bits, unknown flag bits, non-ascending map keys and trailing bytes. Each
// must fail with ErrCorrupt before allocating what the lie asks for.
func TestHostilePayloads(t *testing.T) {
	snap := snapshotPayload(t, fullSnapshot())
	priv := privatePayload(t, fullPrivate())
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
	img, err := encodeSnapshot(dup, 1)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-4-4-16] = 1 // second Offenses key 2 → 1 (BlockedUntil and Norms counts follow)
	if _, err := seal(img, kindSnapshot, 1); err != nil {
		t.Fatal(err)
	}
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
	f.Add(snapshotPayload(f, fullSnapshot()))
	f.Add(snapshotPayload(f, &Snapshot{Dataset: "d", State: []float64{1}}))
	f.Add(privatePayload(f, fullPrivate()))
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if s, err := decodeSnapshot(payload, 0); err == nil {
			img, err := encodeSnapshot(s, 0)
			if err != nil {
				t.Fatalf("re-encode of an accepted snapshot failed: %v", err)
			}
			if !bytes.Equal(img[envHeaderSize:], payload) {
				t.Fatalf("accepted snapshot payload is not canonical")
			}
		}
		if p, err := decodePrivate(payload, 0); err == nil {
			img, err := encodePrivate(p, 0)
			if err != nil {
				t.Fatalf("re-encode of an accepted private store failed: %v", err)
			}
			if !bytes.Equal(img[envHeaderSize:], payload) {
				t.Fatalf("accepted private payload is not canonical")
			}
		}
	})
}
