package theta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot export/import for Union accumulators — Θ's one byte format, used
// by registry checkpoints, the served snapshot/restore ops and sketchtool's
// files. ExportTo is an append-style body encoder: the container framing
// (family tag, length prefix, version) lives in internal/snapshot, and this
// layer serialises only the union state, in the same spirit as the FoldInto
// drain hook it mirrors. A standalone sketch travels as a union holding it:
// NewUnion, Add, ExportTo; and back with ImportFrom and Result.
//
// Body layout (little-endian):
//
//	lgK    uint8
//	seed   uint64
//	theta  uint64
//	count  uint32
//	hashes count × uint64   (retained hashes, each in (0, theta))
//
// ExportTo writes the hashes in ascending order; ImportFrom takes them in
// any order, as bodies exported before the order was fixed list them in
// table-slot order.
const unionSnapMin = 1 + 8 + 8 + 4

// ErrCorrupt is returned by ImportFrom when a snapshot fails structural
// validation.
var ErrCorrupt = errors.New("theta: corrupt snapshot")

// ErrSnapshotMismatch is returned by ImportFrom when the snapshot was taken
// from a sketch whose configuration (hash seed) is incompatible with the
// receiver: folding it would silently corrupt the estimate, so the import is
// refused with a typed error rather than a panic — snapshot bytes cross
// process and machine boundaries and are not trusted input.
var ErrSnapshotMismatch = errors.New("theta: snapshot config mismatch")

// ExportTo appends the union's accumulated state to dst and returns the
// extended slice, hashes in ascending order, so equal states export equal
// bytes. The receiver is only read, so concurrent exports (and exports
// concurrent with FoldInto) are safe; with a pre-grown dst the encode
// allocates nothing.
func (u *Union) ExportTo(dst []byte) []byte {
	g := u.gadget
	dst = append(dst, byte(g.lgK))
	dst = binary.LittleEndian.AppendUint64(dst, g.seed)
	dst = binary.LittleEndian.AppendUint64(dst, g.thetaLong)
	countAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	n := uint32(0)
	for _, h := range u.entries() {
		if h != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, h)
			n++
		}
	}
	binary.LittleEndian.PutUint32(dst[countAt:], n)
	sortHashes(dst[countAt+4:])
	return dst
}

// sortHashes sorts a run of little-endian uint64 hashes in place, ascending,
// so that unions holding equal state export equal bytes whatever order their
// tables hold it in. A heapsort over the bytes themselves: in place, so the
// export stays allocation-free and leaves the receiver untouched.
func sortHashes(run []byte) {
	n := len(run) / 8
	for i := n/2 - 1; i >= 0; i-- {
		siftHash(run, i, n, hashAt(run, i))
	}
	for end := n - 1; end > 0; end-- {
		top := hashAt(run, 0)
		siftHash(run, 0, end, hashAt(run, end))
		binary.LittleEndian.PutUint64(run[8*end:], top)
	}
}

// siftHash moves h down the max-heap of the first end hashes of run, from
// the hole at root to where it belongs.
func siftHash(run []byte, root, end int, h uint64) {
	for child := 2*root + 1; child < end; child = 2*root + 1 {
		c := hashAt(run, child)
		if child+1 < end {
			if c2 := hashAt(run, child+1); c < c2 {
				child, c = child+1, c2
			}
		}
		if h >= c {
			break
		}
		binary.LittleEndian.PutUint64(run[8*root:], c)
		root = child
	}
	binary.LittleEndian.PutUint64(run[8*root:], h)
}

func hashAt(run []byte, i int) uint64 { return binary.LittleEndian.Uint64(run[8*i:]) }

// ImportFrom folds a snapshot produced by ExportTo into the receiver,
// exactly like FoldInto from a live union: Θ drops to the minimum of the two
// thresholds and every retained hash is re-inserted. The snapshot's lgK need
// not match the receiver's (union semantics tolerate mixed nominal sizes);
// its seed must. Structural violations return ErrCorrupt, configuration
// conflicts ErrSnapshotMismatch; on any error the receiver is unchanged.
func (u *Union) ImportFrom(data []byte) error {
	if len(data) < unionSnapMin {
		return fmt.Errorf("%w: short union snapshot (%d bytes)", ErrCorrupt, len(data))
	}
	lgK := int(data[0])
	seed := binary.LittleEndian.Uint64(data[1:])
	theta := binary.LittleEndian.Uint64(data[9:])
	count := int(binary.LittleEndian.Uint32(data[17:]))
	if lgK < 2 || lgK > 26 {
		return fmt.Errorf("%w: lgK %d outside [2,26]", ErrCorrupt, lgK)
	}
	if theta == 0 {
		return fmt.Errorf("%w: zero theta", ErrCorrupt)
	}
	if count > 2<<lgK {
		return fmt.Errorf("%w: retained %d exceeds 2k for lgK %d", ErrCorrupt, count, lgK)
	}
	if len(data) != unionSnapMin+8*count {
		return fmt.Errorf("%w: length %d does not match count %d", ErrCorrupt, len(data), count)
	}
	// Validate every hash before touching the receiver: a zero hash would
	// occupy an empty table slot and a hash ≥ Θ violates the retention
	// invariant — either means the snapshot is corrupt, and a partial fold
	// must not survive.
	hashes := data[unionSnapMin:]
	for i := 0; i < count; i++ {
		h := binary.LittleEndian.Uint64(hashes[8*i:])
		if h == 0 || h >= theta {
			return fmt.Errorf("%w: retained hash out of range", ErrCorrupt)
		}
	}
	if seed != u.gadget.seed {
		return fmt.Errorf("%w: seed %#x, receiver has %#x", ErrSnapshotMismatch, seed, u.gadget.seed)
	}
	u.settle()
	u.gadget.shrinkTheta(theta)
	for i := 0; i < count; i++ {
		u.gadget.UpdateHash(binary.LittleEndian.Uint64(hashes[8*i:]))
	}
	return nil
}
