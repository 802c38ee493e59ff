// Package worldfile is the binary columnar world interchange format:
// one .rpw file carries a complete inference input bundle (world,
// merged registry dataset, colocation database, ping campaign in folded
// aggregate form, traceroute corpus, speed model, seed), so world
// generation is paid once per world — by cmd/rpi-gen — and every
// serving process (rpi-serve, rpi-bot, the scaling benchmarks) loads it
// back in seconds with one large read and column slicing.
//
// File layout (little-endian):
//
//	magic "RPWFILE1" | u32 format version | u64 fingerprint | u32 #sections
//	section...
//
// and each section is
//
//	u16 name length | name | u32 payload length | payload | u32 CRC32C(payload)
//
// — the same Castagnoli checksum discipline as internal/wal frames and
// internal/snapshot files. Section payloads are column groups written
// and read through internal/snapshot schema tables (sections.go),
// except "config", which is a small JSON document. The header fingerprint is core.Fingerprint of the
// decoded bundle, recomputed and compared at load time, so a file
// cannot silently impersonate a different (seed, scale) world — and a
// loaded bundle is pinned byte-identical to in-process generation by
// TestWorldFileRoundTrip.
//
// Decoding validates every section checksum before trusting a byte and
// every cross-column reference after; any failure is a typed error
// (ErrInvalid, ErrVersion, ErrFingerprint), never a panic or a silently
// partial world.
package worldfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rpeer/internal/core"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
)

// Magic identifies a world file.
const Magic = "RPWFILE1"

// FormatVersion is the current world file format.
const FormatVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed failure modes. All decode errors wrap exactly one of these, so
// callers can distinguish corruption from version skew from a
// wrong-world file with errors.Is.
var (
	// ErrInvalid marks a corrupt or truncated file: bad magic, a
	// section checksum mismatch, a malformed column, or a dangling
	// cross-column reference.
	ErrInvalid = errors.New("worldfile: invalid world file")
	// ErrVersion marks a file written by a newer format version.
	ErrVersion = errors.New("worldfile: unsupported format version")
	// ErrFingerprint marks a structurally valid file whose content does
	// not hash to the fingerprint stamped in its header — a tampered
	// header or a bundle that is not what it claims to be.
	ErrFingerprint = errors.New("worldfile: fingerprint mismatch")
)

// Section names. Order in the file is fixed (the encode order below),
// but the decoder indexes by name and does not rely on it.
const (
	secConfig  = "config"
	secWorld   = "world"
	secDataset = "dataset"
	secColo    = "colo"
	secPing    = "ping"
	secPaths   = "paths"
	secMeta    = "meta"
)

// Encode serialises a complete input bundle into the .rpw wire form.
// The bundle's ping campaign is folded: per-interface aggregates (with
// any override overlay already applied) are written, raw per-VP
// measurements are not — see internal/pingsim.RestoredResult for what
// a decoded campaign answers.
func Encode(in core.Inputs) ([]byte, error) {
	if in.World == nil || in.Dataset == nil || in.Colo == nil || in.Ping == nil {
		return nil, fmt.Errorf("worldfile: encode needs a complete input bundle (world, dataset, colo, ping)")
	}
	cfg, err := encodeConfig(in.World.Cfg)
	if err != nil {
		return nil, err
	}
	sections := []section{
		{secConfig, cfg},
		{secWorld, encodeWorld(in.World)},
		{secDataset, encodeDataset(in.Dataset)},
		{secColo, encodeColo(in.Colo)},
		{secPing, encodePing(in.Ping)},
		{secPaths, encodePaths(in.Paths)},
		{secMeta, encodeMeta(in)},
	}
	return assemble(core.Fingerprint(in), sections), nil
}

// assemble frames checksummed sections behind the file header.
func assemble(fp uint64, sections []section) []byte {
	size := len(Magic) + 4 + 8 + 4
	for _, s := range sections {
		size += 2 + len(s.name) + 4 + len(s.payload) + 4
	}
	b := make([]byte, 0, size)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sections)))
	for _, s := range sections {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.name)))
		b = append(b, s.name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.payload)))
		b = append(b, s.payload...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(s.payload, castagnoli))
	}
	return b
}

type section struct {
	name    string
	payload []byte
}

// Decode parses and validates a world file image, reassembling the
// full input bundle. Section payloads are sliced out of data without
// copying; the caller must not mutate data afterwards.
func Decode(data []byte) (core.Inputs, error) {
	payloads, fp, err := splitSections(data)
	if err != nil {
		return core.Inputs{}, err
	}
	need := func(name string) ([]byte, error) {
		p, ok := payloads[name]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %q", ErrInvalid, name)
		}
		return p, nil
	}
	var in core.Inputs
	for _, step := range []struct {
		name string
		dec  func([]byte) error
	}{
		{secWorld, func(p []byte) error {
			cfgRaw, err := need(secConfig)
			if err != nil {
				return err
			}
			cfg, err := decodeConfig(cfgRaw)
			if err != nil {
				return err
			}
			in.World, err = decodeWorld(cfg, p)
			return err
		}},
		{secDataset, func(p []byte) (err error) { in.Dataset, err = decodeDataset(p); return err }},
		{secColo, func(p []byte) (err error) { in.Colo, err = decodeColo(p); return err }},
		{secPing, func(p []byte) (err error) { in.Ping, err = decodePing(p); return err }},
		{secPaths, func(p []byte) (err error) { in.Paths, err = decodePaths(p); return err }},
		{secMeta, func(p []byte) error { return decodeMeta(p, &in) }},
	} {
		p, err := need(step.name)
		if err != nil {
			return core.Inputs{}, err
		}
		if err := step.dec(p); err != nil {
			return core.Inputs{}, fmt.Errorf("section %q: %w", step.name, err)
		}
	}
	if got := core.Fingerprint(in); got != fp {
		return core.Inputs{}, fmt.Errorf("%w: header says %016x, content hashes to %016x", ErrFingerprint, fp, got)
	}
	return in, nil
}

// splitSections validates the container framing and returns the
// checksum-verified payload of each section (zero-copy slices of data)
// plus the header fingerprint.
func splitSections(data []byte) (map[string][]byte, uint64, error) {
	if len(data) < len(Magic)+4+8+4 {
		return nil, 0, fmt.Errorf("%w: %d bytes is too short", ErrInvalid, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	rd := snapshot.NewReader(data[len(Magic):])
	if ver := rd.U32(); ver > FormatVersion {
		return nil, 0, fmt.Errorf("%w: file is v%d, newest supported is v%d", ErrVersion, ver, FormatVersion)
	}
	fp := rd.U64()
	payloads := make(map[string][]byte)
	for n := rd.Count(2 + 4 + 4); len(payloads) < n && rd.Err() == nil; {
		name := rd.Str()
		payload := rd.Bytes(int(rd.U32()))
		sum := rd.U32()
		if rd.Err() != nil {
			return nil, 0, fmt.Errorf("%w: section %d (%q) truncated: %v", ErrInvalid, len(payloads), name, rd.Err())
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, 0, fmt.Errorf("%w: section %q checksum mismatch", ErrInvalid, name)
		}
		if _, dup := payloads[name]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate section %q", ErrInvalid, name)
		}
		payloads[name] = payload
	}
	if rd.Err() != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrInvalid, rd.Err())
	}
	if rd.Len() != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after last section", ErrInvalid, rd.Len())
	}
	return payloads, fp, nil
}

// Write publishes the bundle to path atomically (wal.Publish), so a
// crash mid-write never leaves a half world behind the final name.
func Write(fsys wal.FS, path string, in core.Inputs) error {
	b, err := Encode(in)
	if err != nil {
		return err
	}
	if err := wal.Publish(fsys, path, b); err != nil {
		return fmt.Errorf("worldfile: %w", err)
	}
	return nil
}

// WriteFile is Write over the real filesystem.
func WriteFile(path string, in core.Inputs) error {
	return Write(wal.OS(), path, in)
}

// Load reads a world file with one large read and decodes it.
func Load(path string) (core.Inputs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Inputs{}, fmt.Errorf("worldfile: read %s: %w", path, err)
	}
	in, err := Decode(data)
	if err != nil {
		return core.Inputs{}, fmt.Errorf("worldfile: load %s: %w", path, err)
	}
	return in, nil
}

// LoadReader decodes a world file from a stream (io.ReadAll, then
// Decode) — for callers that already hold an open handle.
func LoadReader(r io.Reader) (core.Inputs, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return core.Inputs{}, fmt.Errorf("worldfile: read: %w", err)
	}
	return Decode(data)
}
