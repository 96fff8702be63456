package hll

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot export/import for HLL sketches — the persistence hooks of the
// registry checkpoint plane. ExportTo is an append-style body encoder (the
// container framing lives in internal/snapshot); ImportFrom is the
// register-wise-max fold of Merge, applied to untrusted bytes with typed
// errors instead of panics.
//
// Body layout (little-endian):
//
//	p    uint8
//	seed uint64
//	regs 2^p bytes
const hllSnapMin = 1 + 8

// ErrCorrupt is returned by ImportFrom when a snapshot fails structural
// validation.
var ErrCorrupt = errors.New("hll: corrupt snapshot")

// ErrSnapshotMismatch is returned by ImportFrom when the snapshot's
// precision or seed differs from the receiver's: register-wise max across
// different parameterisations is meaningless, so the import is refused.
var ErrSnapshotMismatch = errors.New("hll: snapshot config mismatch")

// ExportTo appends the sketch's register state to dst and returns the
// extended slice. The receiver is only read; with a pre-grown dst the encode
// allocates nothing.
func (s *Sketch) ExportTo(dst []byte) []byte {
	dst = append(dst, byte(s.p))
	dst = binary.LittleEndian.AppendUint64(dst, s.seed)
	return append(dst, s.regs...)
}

// ImportFrom folds a snapshot produced by ExportTo into the receiver by
// register-wise max — exactly the Merge/FoldInto fold. Structural violations
// return ErrCorrupt, configuration conflicts ErrSnapshotMismatch; on any
// error the receiver is unchanged.
func (s *Sketch) ImportFrom(data []byte) error {
	if len(data) < hllSnapMin {
		return fmt.Errorf("%w: short HLL snapshot (%d bytes)", ErrCorrupt, len(data))
	}
	p := int(data[0])
	seed := binary.LittleEndian.Uint64(data[1:])
	if p < 4 || p > 21 {
		return fmt.Errorf("%w: precision %d outside [4,21]", ErrCorrupt, p)
	}
	regs := data[hllSnapMin:]
	if len(regs) != 1<<p {
		return fmt.Errorf("%w: %d registers, want %d", ErrCorrupt, len(regs), 1<<p)
	}
	// A register stores the rank of the first 1-bit after the index bits are
	// consumed; the guard bit bounds it at 65−p. Anything larger cannot have
	// been produced by UpdateHash.
	maxRank := uint8(65 - p)
	for _, r := range regs {
		if r > maxRank {
			return fmt.Errorf("%w: register rank %d exceeds %d", ErrCorrupt, r, maxRank)
		}
	}
	if p != s.p {
		return fmt.Errorf("%w: precision %d, receiver has %d", ErrSnapshotMismatch, p, s.p)
	}
	if seed != s.seed {
		return fmt.Errorf("%w: seed %#x, receiver has %#x", ErrSnapshotMismatch, seed, s.seed)
	}
	for i, r := range regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	return nil
}
