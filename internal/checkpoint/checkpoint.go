// Package checkpoint defines the on-disk snapshot envelope shared by
// every resumable artifact in the repository: simulation-run
// checkpoints and experiment-grid cell manifests.
//
// Format (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "ISCK"
//	4       2     format version (see Version)
//	6       8     payload length in bytes
//	14      n     payload: gob-encoded value
//	14+n    4     CRC-32 (Castagnoli) over bytes [0, 14+n)
//
// Compatibility policy: a decoder accepts exactly the versions it
// knows how to interpret (today: only Version). A file with any other
// version, written by a newer build or by an older one, is rejected
// with ErrVersion rather than misread; no reader ever silently
// reinterprets state. Any structural change to a payload type must
// bump Version.
// Truncated files and bit rot are rejected with ErrTruncated and
// ErrChecksum respectively, before gob ever sees the payload.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint envelope.
const Magic = "ISCK"

// Version is the current envelope format version. Version 2 added the
// brownout-ladder and invariant-monitor sections to run snapshots and
// the reserve fraction to battery state. Version 3 made run snapshots
// self-contained for streaming: every job snapshot carries its full
// definition, and arrival events occupy a reserved low sequence band.
// Version 4 added the telemetry section (sensor read state and the
// estimated power view) and the invariant monitor's advisory-warning
// counters. Version 5 stores only what the configuration cannot
// re-derive: no trace job definitions, one trace cursor for the pending
// trace arrivals, no stale events, no busy-since stamp for an idle
// processor, under an exact config hash.
const Version uint16 = 5

const headerLen = 4 + 2 + 8 // magic + version + payload length

var (
	// ErrTruncated marks a file shorter than its envelope declares.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrChecksum marks payload corruption (CRC mismatch).
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrVersion marks an envelope of any version but Version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrMagic marks a file that is not a checkpoint at all.
	ErrMagic = errors.New("checkpoint: bad magic")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode wraps a gob-encoded payload in a versioned, checksummed
// envelope.
func Encode(payload any) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	out := make([]byte, 0, headerLen+body.Len()+4)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(body.Len()))
	out = append(out, body.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out, nil
}

// Decode verifies an envelope and gob-decodes its payload into the
// given pointer. Errors wrap ErrMagic, ErrVersion, ErrTruncated or
// ErrChecksum so callers can classify the failure.
func Decode(data []byte, payload any) error {
	if len(data) < headerLen {
		return fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerLen)
	}
	if string(data[:4]) != Magic {
		return fmt.Errorf("%w: got %q, want %q", ErrMagic, data[:4], Magic)
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version != Version {
		return fmt.Errorf("%w: file is version %d, this build reads version %d", ErrVersion, version, Version)
	}
	plen := binary.LittleEndian.Uint64(data[6:headerLen])
	want := headerLen + int(plen) + 4
	if plen > uint64(len(data)) || len(data) < want {
		return fmt.Errorf("%w: envelope declares %d payload bytes but only %d bytes follow the header",
			ErrTruncated, plen, len(data)-headerLen)
	}
	body := data[:headerLen+int(plen)]
	sum := binary.LittleEndian.Uint32(data[len(body) : len(body)+4])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, sum)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[headerLen:])).Decode(payload); err != nil {
		return fmt.Errorf("checkpoint: decode payload: %w", err)
	}
	return nil
}

// WriteBytes atomically and durably writes an already-encoded
// envelope: the data lands in a temporary file in the same directory,
// is fsynced and renamed into place, and the directory is fsynced after
// the rename. A crash mid-write never leaves a half-written checkpoint
// where a reader expects a valid one, and once WriteBytes returns the
// new file survives a power loss, so a caller may then delete what the
// checkpoint replaces (a daemon compacts its journal).
func WriteBytes(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return nil
}

// ReadBytes reads a raw envelope from disk; Decode validates it.
func ReadBytes(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return data, nil
}

// WriteFile encodes a payload and atomically writes it to path.
func WriteFile(path string, payload any) error {
	data, err := Encode(payload)
	if err != nil {
		return err
	}
	return WriteBytes(path, data)
}

// ReadFile reads and decodes an envelope from path into payload.
func ReadFile(path string, payload any) error {
	data, err := ReadBytes(path)
	if err != nil {
		return err
	}
	return Decode(data, payload)
}
