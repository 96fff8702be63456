package theta

import (
	"math"
	"sync/atomic"
)

// Composable wraps a QuickSelect sketch as the shared global sketch of the
// concurrent framework (the paper's "composable Θ sketch", Section 5.1,
// extended with the three APIs of Algorithm 1):
//
//   - snapshot: the estimate is published in a single atomic word, so a
//     query is one atomic load — trivially strongly linearisable and safe
//     to run concurrently with merge, exactly as the paper's sketch "simply
//     accesses an atomic variable that holds the query result".
//   - calcHint: returns Θ (as the integer threshold), which is monotonically
//     non-increasing, making stale hints safe.
//   - shouldAdd: h < Θ — an element whose hash is at or above the hinted Θ
//     can never enter the sample set again, so it is summary-preserving to
//     drop it (the paper's pre-filtering optimisation).
//
// The element type seen by the framework is the raw 64-bit hash: callers
// hash once (HashKey) and both pre-filtering and ingestion reuse it.
type Composable struct {
	gadget *QuickSelect
	// estBits holds math.Float64bits of the latest published estimate.
	estBits atomic.Uint64
	// thetaLong mirrors gadget.ThetaLong() for concurrent hint reads.
	thetaLong atomic.Uint64
	// retainedApprox mirrors the retained count for monitoring.
	retained atomic.Int64
	// snapshots, when enabled, makes every publish additionally store an
	// immutable CompactSketch of the full retained set, so cross-sketch
	// folds (SnapshotMerge) are wait-free. Off by default: the copy is
	// O(retained) per propagation, which single-sketch users don't need.
	snapshots bool
	snap      atomic.Pointer[CompactSketch]
}

// NewComposable returns a composable Θ sketch with 2^lgK nominal entries.
func NewComposable(lgK int, seed uint64) *Composable {
	c := &Composable{gadget: NewQuickSelect(lgK, seed)}
	c.thetaLong.Store(MaxTheta)
	return c
}

// MergeBuffer folds a batch of pre-filtered raw hashes into the global
// sketch and publishes the new estimate. Propagator goroutine only.
func (c *Composable) MergeBuffer(hashes []uint64) {
	c.gadget.MergeHashes(hashes)
	c.publish()
}

// DirectUpdate applies one raw hash during the eager phase (framework lock
// held) and publishes the new estimate so queries stay exact.
func (c *Composable) DirectUpdate(h uint64) {
	c.gadget.UpdateHash(h)
	c.publish()
}

// publish refreshes the atomically-readable view (est, Θ, retained). The
// write to estBits is the linearisation point of a merge: "the result of a
// merge is only visible after writing to est".
func (c *Composable) publish() {
	c.thetaLong.Store(c.gadget.ThetaLong())
	c.retained.Store(int64(c.gadget.Retained()))
	c.estBits.Store(math.Float64bits(c.gadget.Estimate()))
	if c.snapshots {
		c.snap.Store(&CompactSketch{
			thetaLong: c.gadget.ThetaLong(),
			hashes:    c.gadget.Retention(nil),
			seed:      c.gadget.Seed(),
		})
	}
}

// EnableSnapshots turns on full-snapshot publication: after every merge the
// composable additionally publishes an immutable CompactSketch of the
// retained set, making Snapshot and SnapshotMerge available to concurrent
// readers. Must be called before the framework starts ingesting (it is not
// synchronised with the propagator).
func (c *Composable) EnableSnapshots() {
	c.snapshots = true
	c.snap.Store(&CompactSketch{
		thetaLong: c.gadget.ThetaLong(),
		seed:      c.gadget.Seed(),
	})
}

// Snapshot returns the latest published immutable view of the whole sketch
// (nil unless EnableSnapshots was called). Wait-free: one atomic pointer
// load; safe concurrently with merges.
func (c *Composable) Snapshot() *CompactSketch { return c.snap.Load() }

// SnapshotMergeInto folds the latest published snapshot into the union
// accumulator — the merge-on-query path of a sharded deployment: each
// shard's global sketch is snapshotted wait-free and folded into acc, so a
// cross-shard query never blocks any shard's propagator. Requires
// EnableSnapshots.
//
// acc is caller-owned and reusable: the fold only reads the published
// snapshot (never retains a reference to acc or vice versa), so a hot query
// path can Reset one Union and fold every shard into it on each query
// without allocating. Repeated reuse is equivalent to a fresh accumulator
// per query.
func (c *Composable) SnapshotMergeInto(acc *Union) {
	s := c.snap.Load()
	if s == nil {
		panic("theta: SnapshotMergeInto requires EnableSnapshots before ingestion")
	}
	if s.seed != acc.gadget.seed {
		panic("theta: cannot merge sketches with different seeds")
	}
	acc.AddHashes(s.hashes, s.thetaLong)
}

// CalcHint returns the current Θ threshold; never zero because retained
// hashes are non-zero, so Θ ≥ 1.
func (c *Composable) CalcHint() uint64 {
	return c.thetaLong.Load()
}

// ShouldAdd reports whether hash h could still enter the sample set given
// the hinted threshold: h < Θ. Safe because Θ only decreases.
func (c *Composable) ShouldAdd(hint uint64, h uint64) bool {
	return h < hint
}

// Estimate returns the latest published estimate — the snapshot query. It is
// wait-free (one atomic load) and safe concurrently with merges.
func (c *Composable) Estimate() float64 {
	return math.Float64frombits(c.estBits.Load())
}

// ThetaLong returns the latest published threshold.
func (c *Composable) ThetaLong() uint64 { return c.thetaLong.Load() }

// Retained returns the latest published retained-entry count.
func (c *Composable) Retained() int { return int(c.retained.Load()) }

// Gadget exposes the underlying sequential sketch. Only safe to use after
// the framework has been closed (no concurrent merges).
func (c *Composable) Gadget() *QuickSelect { return c.gadget }
