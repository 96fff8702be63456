// Package snapshot defines the versioned binary container for sketch
// checkpoints — the persistence format of the registry's Checkpoint/Restore
// cycle and of the OpSnapshot/OpRestore wire envelope.
//
// # Container
//
// A checkpoint file is one header followed by count records:
//
//	magic    uint32 LE = "FSNP"
//	version  uint16 LE = 2
//	reserved uint16 LE = 0
//	count    uint32 LE
//	records  count × record
//
// Each record is one sketch's identity, the Spec it ran under and its
// family-encoded state:
//
//	recLen   uint32 LE      (length of everything after this field)
//	family   uint8          (wire.Family)
//	nameLen  uint8          (1..MaxName)
//	name     nameLen bytes
//	spec     wire.AppendSpec encoding, every field of the Spec in force
//	blobLen  uint32 LE
//	blob     blobLen bytes  (the family's ExportTo body)
//	tail     window slot blobs                            if spec.Window
//
// A windowed record's blob holds the base state (everything outside the
// closed ring slots); the tail serialises the ring slot-by-slot, oldest
// first, plus the optional decay plane:
//
//	slotCount uint32 LE    (≤ window slots)
//	slots     slotCount × [len uint32 LE, blob]
//	decayed   uint8        (0 or 1)
//	dblob     [len uint32 LE, blob]                       if decayed = 1
//
// Any other version, including the earlier version 1, is rejected with
// ErrVersion.
//
// # Portable records
//
// A single record prefixed with the format version — BeginPortable — is the
// self-contained unit that travels in OpSnapshot/OpRestore wire bodies, so a
// snapshot pulled from one daemon restores on another even across format
// revisions (the receiver rejects versions it does not speak). It is also
// cmd/sketchtool's file format, so a sketch file and a daemon's snapshot are
// the same bytes.
//
// # Allocation discipline
//
// Same idiom as internal/wire: encoders are append-style and return the
// extended buffer; parsers return views into the input (Record.Name and
// Record.Blob alias the parse buffer) and reject truncated, oversized,
// version-skewed or trailing input with typed errors, never panicking.
// BeginRecord/EndRecord bracket in-place blob encoding so the registry can
// stream each family's ExportTo straight into the checkpoint buffer without
// a gather copy.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fastsketches/internal/window"
	"fastsketches/internal/wire"
)

const (
	// Magic opens every checkpoint container ("FSNP" little-endian).
	Magic uint32 = 0x504e5346
	// Version is the container format version this build writes and the
	// only one it reads.
	Version uint16 = 2
	// MaxName bounds a record's sketch name, matching the wire protocol.
	MaxName = wire.MaxName
	// MaxBlob caps one record's family blob. Records announcing a larger
	// blob are rejected before any allocation; the bound is far above any
	// real sketch (a 2^21-register HLL is 2 MiB) while keeping a corrupt
	// length prefix from ballooning memory.
	MaxBlob = 1 << 28
	// MaxRecords caps the container's record count for the same reason.
	MaxRecords = 1 << 20

	headerLen = 4 + 2 + 2 + 4
	// maxSettingsLen bounds a record net of name and blob: family, name and
	// blob lengths, and a Spec.
	maxSettingsLen = 1 + 1 + 4 + wire.MaxSpecLen
)

// The codec's typed errors. Parse functions return one of these (possibly
// wrapped with context); they never panic on any input.
var (
	ErrMagic     = errors.New("snapshot: bad magic")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrTruncated = errors.New("snapshot: truncated input")
	ErrTrailing  = errors.New("snapshot: trailing bytes")
	ErrBadRecord = errors.New("snapshot: malformed record")
)

// Record is one sketch's checkpoint entry. Name and Blob are views into the
// parse buffer on the decode side; on the encode side they are read but
// never retained.
type Record struct {
	Family wire.Family
	Name   []byte
	// Spec is the configuration the sketch ran under — its Info().Spec —
	// which Restore applies to the restored sketch.
	Spec wire.Spec
	// WindowSlotBlobs are the closed ring slots' ExportTo bodies, oldest
	// first; WindowDecayedBlob is the decay plane's body (nil when the
	// record has no decay plane). Present only with Spec.Window; views into
	// the parse buffer on decode.
	WindowSlotBlobs   [][]byte
	WindowDecayedBlob []byte
	// Blob is the family's ExportTo body. For a windowed record it holds
	// the base state only (live shards, carry, legacy); the closed slots
	// travel in the tail.
	Blob []byte
}

// AppendHeader appends the container header for count records.
func AppendHeader(dst []byte, count int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// Marks brackets an in-progress record between BeginRecord and EndRecord.
type Marks struct {
	rec  int // offset of the recLen field
	blob int // offset of the blobLen field
}

// BeginRecord appends everything of rec except the blob — identity, Spec
// and a blobLen placeholder — and returns the marks EndRecord needs. The
// caller then appends the family blob directly (e.g. via ExportTo) and
// closes the record with EndRecord, so the blob is encoded in place with no
// gather copy. rec.Blob is ignored.
func BeginRecord(dst []byte, rec *Record) ([]byte, Marks) {
	var m Marks
	m.rec = len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = append(dst, byte(rec.Family), byte(len(rec.Name)))
	dst = append(dst, rec.Name...)
	dst = wire.AppendSpec(dst, &rec.Spec)
	m.blob = len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst, m
}

// EndBlob backfills the blob length prefix of a record opened with
// BeginRecord, after the caller appended the blob in place. Only needed for
// windowed records, where the window tail follows the blob and EndRecord can
// no longer infer the blob's extent from the buffer length; the caller then
// appends the tail (AppendWindowTail) and closes with EndRecord as usual.
func EndBlob(dst []byte, m *Marks) []byte {
	binary.LittleEndian.PutUint32(dst[m.blob:], uint32(len(dst)-m.blob-4))
	m.blob = -1
	return dst
}

// AppendWindowTail appends a windowed record's tail — the closed ring slots
// oldest first and the optional decay plane — between EndBlob and EndRecord.
// A nil decayed means no decay plane.
func AppendWindowTail(dst []byte, slots [][]byte, decayed []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(slots)))
	for _, sl := range slots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sl)))
		dst = append(dst, sl...)
	}
	if decayed == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(decayed)))
	return append(dst, decayed...)
}

// EndRecord backfills the record and blob length prefixes of a record opened
// with BeginRecord, after the caller appended the blob (and, for windowed
// records that already ran EndBlob, the window tail).
func EndRecord(dst []byte, m Marks) []byte {
	if m.blob >= 0 {
		binary.LittleEndian.PutUint32(dst[m.blob:], uint32(len(dst)-m.blob-4))
	}
	binary.LittleEndian.PutUint32(dst[m.rec:], uint32(len(dst)-m.rec-4))
	return dst
}

// AppendRecord appends a complete record, blob included — the convenience
// form for callers that already hold the encoded blob (the wire restore
// path).
func AppendRecord(dst []byte, rec *Record) []byte {
	dst, m := BeginRecord(dst, rec)
	dst = append(dst, rec.Blob...)
	if rec.Spec.Window != nil {
		dst = EndBlob(dst, &m)
		dst = AppendWindowTail(dst, rec.WindowSlotBlobs, rec.WindowDecayedBlob)
	}
	return EndRecord(dst, m)
}

// ParseHeader validates the container header and returns the record count
// and the remaining bytes (the record stream).
func ParseHeader(data []byte) (count int, rest []byte, err error) {
	if len(data) < headerLen {
		return 0, nil, fmt.Errorf("%w: short header (%d bytes)", ErrTruncated, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != Magic {
		return 0, nil, ErrMagic
	}
	if err = parseVersion(data[4:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(data[8:])
	if n > MaxRecords {
		return 0, nil, fmt.Errorf("%w: record count %d exceeds %d", ErrBadRecord, n, MaxRecords)
	}
	return int(n), data[headerLen:], nil
}

// parseVersion reads a uint16 format version, accepting only Version.
func parseVersion(b []byte) error {
	if v := binary.LittleEndian.Uint16(b); v != Version {
		return fmt.Errorf("%w: %d, this build reads %d", ErrVersion, v, Version)
	}
	return nil
}

// ParseRecord decodes one record from the front of data, returning the
// record (Name and Blob aliasing data) and the bytes after it. The record
// must consume exactly its announced recLen.
func ParseRecord(data []byte) (Record, []byte, error) {
	var rec Record
	in := reader{b: data}
	// A windowed record's tail carries the closed slots and decay plane;
	// grant it the same budget again as the base blob.
	recLen := in.u32()
	if in.err == nil && recLen > 2*MaxBlob+maxSettingsLen+MaxName {
		in.fail(ErrBadRecord, "record length %d", recLen)
	}
	r := reader{b: in.next(int(recLen))}
	if in.err != nil {
		return rec, nil, in.err
	}
	rec.Family = wire.Family(r.u8())
	nameLen := int(r.u8())
	switch {
	case r.err == nil && !rec.Family.Valid():
		r.fail(ErrBadRecord, "unknown family %d", rec.Family)
	case r.err == nil && nameLen == 0:
		r.fail(ErrBadRecord, "empty name")
	}
	rec.Name = r.next(nameLen)
	if r.err == nil {
		var err error
		if rec.Spec, r.b, err = wire.ParseSpec(r.b); errors.Is(err, wire.ErrTruncated) {
			r.fail(ErrTruncated, "spec")
		} else if err != nil {
			r.fail(ErrBadRecord, "%w", err)
		}
	}
	rec.Blob = r.blob()
	if w := rec.Spec.Window; w != nil && r.err == nil {
		// The window tail: closed slots oldest first, then the optional
		// decay plane.
		slotCount := r.u32()
		if r.err == nil && (slotCount > window.MaxSlots || int64(slotCount) > int64(w.Slots)) {
			r.fail(ErrBadRecord, "window slot count %d exceeds capacity %d", slotCount, w.Slots)
		}
		if r.err == nil && slotCount > 0 {
			rec.WindowSlotBlobs = make([][]byte, slotCount)
			for i := range rec.WindowSlotBlobs {
				rec.WindowSlotBlobs[i] = r.blob()
			}
		}
		switch marker := r.u8(); {
		case r.err != nil, marker == 0:
		case marker == 1:
			rec.WindowDecayedBlob = r.blob()
		default:
			r.fail(ErrBadRecord, "bad window decay marker %d", marker)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(ErrBadRecord, "%d bytes after the record's last field", len(r.b))
	}
	if r.err != nil {
		return rec, nil, r.err
	}
	return rec, in.b, nil
}

// reader is a bounds-checked sequential reader over a record: a fixed-size
// field past the end is ErrTruncated, a length-prefixed blob overrunning
// the record is ErrBadRecord, and the first error sticks.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(kind error, format string, args ...any) {
	r.err = fmt.Errorf("%w: "+format, append([]any{kind}, args...)...)
}

// next returns the next n bytes, or nil once an error has stuck.
func (r *reader) next(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.fail(ErrTruncated, "need %d bytes, have %d", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) u8() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// blob reads one uint32-length-prefixed blob.
func (r *reader) blob() []byte {
	n := r.u32()
	if r.err == nil && (n > MaxBlob || int(n) > len(r.b)) {
		r.fail(ErrBadRecord, "blob length %d overruns the record's %d bytes", n, len(r.b))
	}
	return r.next(int(n))
}

// BeginPortable opens the self-contained single-record form that travels
// in OpSnapshot/OpRestore wire bodies — the format version followed by one
// record — for in-place blob encoding, as BeginRecord does; EndRecord
// closes it.
func BeginPortable(dst []byte, rec *Record) ([]byte, Marks) {
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return BeginRecord(dst, rec)
}

// ParsePortable decodes a portable single-record body, rejecting other
// format versions and trailing bytes.
func ParsePortable(data []byte) (Record, error) {
	if len(data) < 2 {
		return Record{}, fmt.Errorf("%w: short portable record", ErrTruncated)
	}
	if err := parseVersion(data); err != nil {
		return Record{}, err
	}
	rec, rest, err := ParseRecord(data[2:])
	if err != nil {
		return Record{}, err
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("%w: %d bytes after portable record", ErrTrailing, len(rest))
	}
	return rec, nil
}
