package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Name   string
	Values []float64
	Count  int
}

func samplePayload() payload {
	return payload{Name: "cell-a", Values: []float64{1.5, -2.25, 0.125}, Count: 42}
}

func TestRoundTrip(t *testing.T) {
	in := samplePayload()
	data, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out payload
	if err := Decode(data, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Values) != len(in.Values) {
		t.Fatalf("round trip mismatch: got %+v, want %+v", out, in)
	}
	for i := range in.Values {
		if out.Values[i] != in.Values[i] {
			t.Fatalf("Values[%d] = %v, want %v", i, out.Values[i], in.Values[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	in := samplePayload()
	if err := WriteFile(path, in); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	var out payload
	if err := ReadFile(path, &out); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if out.Name != in.Name || out.Count != in.Count {
		t.Fatalf("file round trip mismatch: got %+v, want %+v", out, in)
	}
	// The atomic write must not leave temp files behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

func TestTruncatedRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Cut at several depths: inside the header, inside the payload, and
	// inside the trailing checksum.
	for _, n := range []int{0, 3, headerLen - 1, headerLen + 5, len(data) - 2} {
		var out payload
		err := Decode(data[:n], &out)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d bytes) = %v, want ErrTruncated", n, err)
		}
	}
}

func TestChecksumMismatchRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Flip one bit in the middle of the gob payload.
	corrupt := append([]byte(nil), data...)
	corrupt[headerLen+len(corrupt[headerLen:])/2] ^= 0x10
	var out payload
	if err := Decode(corrupt, &out); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Decode(corrupt) = %v, want ErrChecksum", err)
	}
}

func TestFutureVersionRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(future[4:6], Version+1)
	var out payload
	err = Decode(future, &out)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(future version) = %v, want ErrVersion", err)
	}
	if err == nil || len(err.Error()) == 0 {
		t.Fatal("want a descriptive error message")
	}
}

// TestFutureVersionWellFormedRejected is the forward-compatibility
// contract: an envelope from a NEWER build — version bumped AND its
// checksum recomputed, so the file is perfectly intact — must be
// rejected with the typed ErrVersion (not misclassified as corruption)
// and must leave the destination payload completely untouched. A
// downgraded reader never partially restores state it cannot interpret.
func TestFutureVersionWellFormedRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(future[4:6], Version+1)
	body := future[:len(future)-4]
	binary.LittleEndian.PutUint32(future[len(body):], crc32.Checksum(body, castagnoli))

	var out payload
	err = Decode(future, &out)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(well-formed future version) = %v, want ErrVersion", err)
	}
	if errors.Is(err, ErrChecksum) {
		t.Fatal("well-formed future envelope misclassified as corruption")
	}
	if out.Name != "" || out.Count != 0 || out.Values != nil {
		t.Fatalf("future-version decode partially restored the payload: %+v", out)
	}
}

// TestVersion4EnvelopeRejected: this build reads no older format
// either. A well-formed version-4 envelope, checksum intact, is refused
// with ErrVersion before its payload is decoded.
func TestVersion4EnvelopeRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	old := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(old[4:6], 4)
	body := old[:len(old)-4]
	binary.LittleEndian.PutUint32(old[len(body):], crc32.Checksum(body, castagnoli))

	var out payload
	if err := Decode(old, &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(version 4) = %v, want ErrVersion", err)
	}
	if out.Name != "" || out.Count != 0 || out.Values != nil {
		t.Fatalf("version-4 decode partially restored the payload: %+v", out)
	}
}

func TestBadMagicRejected(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	notOurs := append([]byte(nil), data...)
	copy(notOurs[:4], "PNG\x00")
	var out payload
	if err := Decode(notOurs, &out); !errors.Is(err, ErrMagic) {
		t.Fatalf("Decode(bad magic) = %v, want ErrMagic", err)
	}
}

func TestDeclaredLengthBeyondData(t *testing.T) {
	data, err := Encode(samplePayload())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	lying := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(lying[6:headerLen], uint64(len(lying))*2)
	var out payload
	if err := Decode(lying, &out); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode(oversized length) = %v, want ErrTruncated", err)
	}
}
