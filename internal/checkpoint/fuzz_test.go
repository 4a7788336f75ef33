package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzEnvelope throws arbitrary bytes at the envelope reader (via the
// snapshot Load path). The invariants: no input panics the decoder; any input whose CRC does not
// match its payload is rejected; and a well-formed envelope around a valid
// payload round-trips.
func FuzzEnvelope(f *testing.F) {
	// Seed with a valid envelope and assorted near-misses.
	var valid bytes.Buffer
	if err := Save(&valid, &Snapshot{Dataset: "purchase100", Round: 3, State: []float64{1, 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(envMagic))
	f.Add([]byte("DNCKxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})
	truncated := append([]byte(nil), valid.Bytes()...)
	f.Add(truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must satisfy the snapshot invariants Load
		// enforces; re-saving it must produce a loadable envelope.
		if len(s.State) == 0 {
			t.Fatalf("Load accepted an invalid snapshot: %+v", s)
		}
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatalf("re-save of a loaded snapshot failed: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}

		// If the input was an envelope, independently verify the CRC
		// actually matched — Load accepting a mismatch would defeat the
		// whole point of the format.
		if len(data) >= envHeaderSize && string(data[:4]) == envMagic {
			n := binary.BigEndian.Uint32(data[14:18])
			sum := binary.BigEndian.Uint32(data[18:22])
			if int(n) <= len(data)-envHeaderSize {
				payload := data[envHeaderSize : envHeaderSize+int(n)]
				if crc32.ChecksumIEEE(payload) != sum {
					t.Fatalf("Load accepted an envelope whose CRC does not match")
				}
			}
		}
	})
}

// FuzzEnvelopeCorruption flips one byte of a valid envelope at a
// fuzzer-chosen offset: every single-byte corruption must either still be
// the identical snapshot (impossible — any flip lands in the header, the
// CRC, or the payload) or be rejected; none may panic or silently decode
// to different data.
func FuzzEnvelopeCorruption(f *testing.F) {
	var valid bytes.Buffer
	if err := Save(&valid, &Snapshot{Dataset: "purchase100", Round: 3, State: []float64{1, 2}}); err != nil {
		f.Fatal(err)
	}
	base := valid.Bytes()
	f.Add(uint(0), byte(0xff))
	f.Add(uint(len(base)-1), byte(0x01))

	f.Fuzz(func(t *testing.T, off uint, mask byte) {
		if mask == 0 {
			return // identity flip: not a corruption
		}
		data := append([]byte(nil), base...)
		data[int(off)%len(data)] ^= mask
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.Round != 3 || s.Dataset != "purchase100" || len(s.State) != 2 || s.State[0] != 1 || s.State[1] != 2 {
			t.Fatalf("a flipped byte at %d decoded to different data: %+v", int(off)%len(data), s)
		}
	})
}
