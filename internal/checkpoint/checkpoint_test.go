package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Dataset: "purchase100", Round: 7, State: []float64{1, 2.5, -3}}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != "purchase100" || got.Round != 7 || got.Version != FormatVersion {
		t.Fatalf("round trip: %+v", got)
	}
	for i, v := range s.State {
		if got.State[i] != v {
			t.Fatal("state corrupted")
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Fatal("accepted nil snapshot")
	}
	if err := Save(&buf, &Snapshot{}); err == nil {
		t.Fatal("accepted empty state")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("accepted garbage")
	}
}

// TestUnsupportedVersionRefused patches the envelope's version byte: files
// written by any other format version — the gob-payload version 2 included
// — must be refused by name, not half-read.
func TestUnsupportedVersionRefused(t *testing.T) {
	var snap, priv bytes.Buffer
	if err := Save(&snap, &Snapshot{Dataset: "d", Round: 1, State: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := SavePrivate(&priv, &PrivateLayers{ClientID: 1, Layers: map[int][]float64{0: {1}}}); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{0, 1, FormatVersion - 1, FormatVersion + 1, 99} {
		data := append([]byte(nil), snap.Bytes()...)
		data[4] = version
		if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("snapshot version %d: Load = %v, want an unsupported-version error", version, err)
		}
		data = append([]byte(nil), priv.Bytes()...)
		data[4] = version
		if _, err := LoadPrivate(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("private store version %d: LoadPrivate = %v, want an unsupported-version error", version, err)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	s := &Snapshot{Dataset: "texas100", Round: 3, State: []float64{9, 8}}
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 || got.State[1] != 8 {
		t.Fatalf("file round trip: %+v", got)
	}
	// Temp file must not remain.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("loaded missing file")
	}
}

func TestPrivateLayersRoundTrip(t *testing.T) {
	p := &PrivateLayers{
		ClientID: 2,
		Layers:   map[int][]float64{4: {1, 2, 3}, 5: {4}},
	}
	var buf bytes.Buffer
	if err := SavePrivate(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrivate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != 2 || len(got.Layers) != 2 || got.Layers[4][2] != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPrivateLayersValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePrivate(&buf, nil); err == nil {
		t.Fatal("accepted nil store")
	}
	if err := SavePrivate(&buf, &PrivateLayers{ClientID: 1}); err == nil {
		t.Fatal("accepted empty store")
	}
	if _, err := LoadPrivate(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestPrivateLayersFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "private.ckpt")
	p := &PrivateLayers{ClientID: 0, Layers: map[int][]float64{4: {7, 7}}}
	if err := SavePrivateFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrivateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[4][0] != 7 {
		t.Fatalf("file round trip: %+v", got)
	}
	if _, err := LoadPrivateFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("loaded missing file")
	}
}
