// Package snapshot defines the versioned binary container for sketch
// checkpoints — the persistence format of the registry's Checkpoint/Restore
// cycle and of the OpSnapshot/OpRestore wire envelope.
//
// # Container
//
// A checkpoint file is one header followed by count records:
//
//	magic    uint32 LE = "FSNP"
//	version  uint16 LE = 1
//	reserved uint16 LE = 0
//	count    uint32 LE
//	records  count × record
//
// Each record carries one sketch's identity, serving configuration and
// family-encoded state:
//
//	recLen   uint32 LE      (length of everything after this field)
//	family   uint8          (wire.Family)
//	nameLen  uint8          (1..MaxName)
//	name     nameLen bytes
//	shards   uint32 LE      (the S the sketch served with)
//	flags    uint8          (bit 0: view block, bit 1: policy block,
//	                         bit 2: window block + tail)
//	view     [refreshNs int64, maxAgeNs int64]            if flags bit 0
//	policy   [minShards u32, maxShards u32,
//	          highWater f64 bits, lowWater f64 bits]      if flags bit 1
//	window   [intervalNs int64, slots u32,
//	          decay f64 bits]                             if flags bit 2
//	blobLen  uint32 LE
//	blob     blobLen bytes  (the family's ExportTo body)
//	tail     window slot blobs                            if flags bit 2
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
// Records without the window flag are byte-identical to format revisions
// that predate it, and readers reject unknown flag bits, so the extension
// needs no version bump.
//
// # Portable records
//
// A single record prefixed with the format version — AppendPortable — is the
// self-contained unit that travels in OpSnapshot/OpRestore wire bodies, so a
// snapshot pulled from one daemon restores on another even across format
// revisions (the receiver rejects versions it does not speak).
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
	"math"

	"fastsketches/internal/wire"
)

const (
	// Magic opens every checkpoint container ("FSNP" little-endian).
	Magic uint32 = 0x504e5346
	// Version is the current container format version.
	Version uint16 = 1
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
	// fixedLen is a record's size net of name, optional blocks and blob.
	fixedLen = 1 + 1 + 4 + 1 + 4

	flagView   = 1 << 0
	flagPolicy = 1 << 1
	flagWindow = 1 << 2

	viewBlockLen   = 8 + 8
	policyBlockLen = 4 + 4 + 8 + 8
	windowBlockLen = 8 + 4 + 8

	// MaxWindowSlots caps a record's window slot count, mirroring the
	// window layer's own ring bound.
	MaxWindowSlots = 1 << 16
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
	// Shards is the shard count S the sketch was serving with when the
	// checkpoint was taken; Restore resizes the fresh sketch to it.
	Shards uint32
	// HasView records whether a materialized view was enabled, with its
	// refresh interval and maximum age in nanoseconds (the shard.ViewConfig
	// durations; MaxAge may be negative = never fall back).
	HasView       bool
	ViewRefreshNs int64
	ViewMaxAgeNs  int64
	// HasPolicy records whether an autoscale controller was attached, with
	// the four wire-travelling policy knobs (the rest are production
	// defaults on restore, exactly as on the OpAutoscale path).
	HasPolicy            bool
	MinShards, MaxShards uint32
	HighWater, LowWater  float64
	// HasWindow records whether a sliding window was enabled, with its
	// rotation interval in nanoseconds, closed-slot capacity and decay
	// factor (0 = no decay plane).
	HasWindow        bool
	WindowIntervalNs int64
	WindowSlots      uint32
	WindowDecay      float64
	// WindowSlotBlobs are the closed ring slots' ExportTo bodies, oldest
	// first; WindowDecayedBlob is the decay plane's body (nil when the
	// record has no decay plane). Views into the parse buffer on decode.
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

// BeginRecord appends everything of rec except the blob — identity, shard
// count, optional view/policy blocks and a blobLen placeholder — and returns
// the marks EndRecord needs. The caller then appends the family blob
// directly (e.g. via ExportTo) and closes the record with EndRecord, so the
// blob is encoded in place with no gather copy. rec.Blob is ignored.
func BeginRecord(dst []byte, rec *Record) ([]byte, Marks) {
	var m Marks
	m.rec = len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = append(dst, byte(rec.Family), byte(len(rec.Name)))
	dst = append(dst, rec.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, rec.Shards)
	var flags byte
	if rec.HasView {
		flags |= flagView
	}
	if rec.HasPolicy {
		flags |= flagPolicy
	}
	if rec.HasWindow {
		flags |= flagWindow
	}
	dst = append(dst, flags)
	if rec.HasView {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ViewRefreshNs))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ViewMaxAgeNs))
	}
	if rec.HasPolicy {
		dst = binary.LittleEndian.AppendUint32(dst, rec.MinShards)
		dst = binary.LittleEndian.AppendUint32(dst, rec.MaxShards)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.HighWater))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.LowWater))
	}
	if rec.HasWindow {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.WindowIntervalNs))
		dst = binary.LittleEndian.AppendUint32(dst, rec.WindowSlots)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.WindowDecay))
	}
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
	if rec.HasWindow {
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
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return 0, nil, fmt.Errorf("%w: %d, this build speaks %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(data[8:])
	if n > MaxRecords {
		return 0, nil, fmt.Errorf("%w: record count %d exceeds %d", ErrBadRecord, n, MaxRecords)
	}
	return int(n), data[headerLen:], nil
}

// ParseRecord decodes one record from the front of data, returning the
// record (Name and Blob aliasing data) and the bytes after it. The record
// must consume exactly its announced recLen.
func ParseRecord(data []byte) (Record, []byte, error) {
	var rec Record
	if len(data) < 4 {
		return rec, nil, fmt.Errorf("%w: short record length", ErrTruncated)
	}
	recLen := binary.LittleEndian.Uint32(data[0:])
	// A windowed record's tail carries the closed slots and decay plane;
	// grant it the same budget again as the base blob.
	if recLen > 2*MaxBlob+fixedLen+MaxName+viewBlockLen+policyBlockLen+windowBlockLen {
		return rec, nil, fmt.Errorf("%w: record length %d", ErrBadRecord, recLen)
	}
	if len(data)-4 < int(recLen) {
		return rec, nil, fmt.Errorf("%w: record needs %d bytes, have %d", ErrTruncated, recLen, len(data)-4)
	}
	body, rest := data[4:4+recLen], data[4+recLen:]
	if len(body) < 2 {
		return rec, nil, fmt.Errorf("%w: short record body", ErrTruncated)
	}
	rec.Family = wire.Family(body[0])
	if !rec.Family.Valid() {
		return rec, nil, fmt.Errorf("%w: unknown family %d", ErrBadRecord, body[0])
	}
	nameLen := int(body[1])
	body = body[2:]
	if nameLen == 0 {
		return rec, nil, fmt.Errorf("%w: empty name", ErrBadRecord)
	}
	if len(body) < nameLen+4+1 {
		return rec, nil, fmt.Errorf("%w: record body shorter than name", ErrTruncated)
	}
	rec.Name = body[:nameLen]
	body = body[nameLen:]
	rec.Shards = binary.LittleEndian.Uint32(body[0:])
	flags := body[4]
	body = body[5:]
	if flags&^(flagView|flagPolicy|flagWindow) != 0 {
		return rec, nil, fmt.Errorf("%w: unknown flags %#x", ErrBadRecord, flags)
	}
	if flags&flagView != 0 {
		if len(body) < viewBlockLen {
			return rec, nil, fmt.Errorf("%w: short view block", ErrTruncated)
		}
		rec.HasView = true
		rec.ViewRefreshNs = int64(binary.LittleEndian.Uint64(body[0:]))
		rec.ViewMaxAgeNs = int64(binary.LittleEndian.Uint64(body[8:]))
		body = body[viewBlockLen:]
	}
	if flags&flagPolicy != 0 {
		if len(body) < policyBlockLen {
			return rec, nil, fmt.Errorf("%w: short policy block", ErrTruncated)
		}
		rec.HasPolicy = true
		rec.MinShards = binary.LittleEndian.Uint32(body[0:])
		rec.MaxShards = binary.LittleEndian.Uint32(body[4:])
		rec.HighWater = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		rec.LowWater = math.Float64frombits(binary.LittleEndian.Uint64(body[16:]))
		body = body[policyBlockLen:]
	}
	if flags&flagWindow != 0 {
		if len(body) < windowBlockLen {
			return rec, nil, fmt.Errorf("%w: short window block", ErrTruncated)
		}
		rec.HasWindow = true
		rec.WindowIntervalNs = int64(binary.LittleEndian.Uint64(body[0:]))
		rec.WindowSlots = binary.LittleEndian.Uint32(body[8:])
		rec.WindowDecay = math.Float64frombits(binary.LittleEndian.Uint64(body[12:]))
		body = body[windowBlockLen:]
	}
	if len(body) < 4 {
		return rec, nil, fmt.Errorf("%w: short blob length", ErrTruncated)
	}
	blobLen := binary.LittleEndian.Uint32(body[0:])
	body = body[4:]
	if !rec.HasWindow {
		// Without a window tail the blob is the record remainder, exactly.
		if int(blobLen) != len(body) {
			return rec, nil, fmt.Errorf("%w: blob length %d does not match record remainder %d", ErrBadRecord, blobLen, len(body))
		}
		rec.Blob = body
		return rec, rest, nil
	}
	if blobLen > MaxBlob || int(blobLen) > len(body) {
		return rec, nil, fmt.Errorf("%w: blob length %d exceeds record remainder %d", ErrBadRecord, blobLen, len(body))
	}
	rec.Blob = body[:blobLen]
	body = body[blobLen:]
	// Window tail: closed slots oldest first, then the optional decay plane.
	// It must consume the record remainder exactly.
	if len(body) < 4 {
		return rec, nil, fmt.Errorf("%w: short window slot count", ErrTruncated)
	}
	slotCount := binary.LittleEndian.Uint32(body[0:])
	body = body[4:]
	if slotCount > MaxWindowSlots || slotCount > rec.WindowSlots {
		return rec, nil, fmt.Errorf("%w: window slot count %d exceeds capacity %d", ErrBadRecord, slotCount, rec.WindowSlots)
	}
	if slotCount > 0 {
		rec.WindowSlotBlobs = make([][]byte, slotCount)
		for i := range rec.WindowSlotBlobs {
			if len(body) < 4 {
				return rec, nil, fmt.Errorf("%w: short window slot length", ErrTruncated)
			}
			n := binary.LittleEndian.Uint32(body[0:])
			body = body[4:]
			if n > MaxBlob || int(n) > len(body) {
				return rec, nil, fmt.Errorf("%w: window slot length %d exceeds remainder %d", ErrBadRecord, n, len(body))
			}
			rec.WindowSlotBlobs[i] = body[:n]
			body = body[n:]
		}
	}
	if len(body) < 1 {
		return rec, nil, fmt.Errorf("%w: short window decay marker", ErrTruncated)
	}
	hasDecayed := body[0]
	body = body[1:]
	switch hasDecayed {
	case 0:
	case 1:
		if len(body) < 4 {
			return rec, nil, fmt.Errorf("%w: short window decay length", ErrTruncated)
		}
		n := binary.LittleEndian.Uint32(body[0:])
		body = body[4:]
		if n > MaxBlob || int(n) != len(body) {
			return rec, nil, fmt.Errorf("%w: window decay length %d does not match remainder %d", ErrBadRecord, n, len(body))
		}
		rec.WindowDecayedBlob = body
		body = nil
	default:
		return rec, nil, fmt.Errorf("%w: bad window decay marker %d", ErrBadRecord, hasDecayed)
	}
	if len(body) != 0 {
		return rec, nil, fmt.Errorf("%w: %d bytes after window tail", ErrBadRecord, len(body))
	}
	return rec, rest, nil
}

// AppendPortable appends the self-contained single-record form used in
// OpSnapshot/OpRestore wire bodies: the format version followed by one
// record (blob included).
func AppendPortable(dst []byte, rec *Record) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return AppendRecord(dst, rec)
}

// BeginPortable/EndPortable bracket in-place blob encoding of a portable
// record, mirroring BeginRecord/EndRecord.
func BeginPortable(dst []byte, rec *Record) ([]byte, Marks) {
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return BeginRecord(dst, rec)
}

// EndPortable closes a record opened with BeginPortable.
func EndPortable(dst []byte, m Marks) []byte { return EndRecord(dst, m) }

// ParsePortable decodes a portable single-record body, rejecting trailing
// bytes.
func ParsePortable(data []byte) (Record, error) {
	if len(data) < 2 {
		return Record{}, fmt.Errorf("%w: short portable record", ErrTruncated)
	}
	if v := binary.LittleEndian.Uint16(data[0:]); v != Version {
		return Record{}, fmt.Errorf("%w: %d, this build speaks %d", ErrVersion, v, Version)
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
