package shard

import "fmt"

// Snapshot export/import for sharded sketches — the shard layer of the
// registry checkpoint plane. Export folds the sketch's entire published
// state (legacy ∪ draining epoch ∪ current shards) through a pooled
// accumulator and hands the accumulator's ExportTo body to the caller;
// import folds a snapshot body into the sketch's legacy accumulator — the
// same plane a Resize drains retired epochs into — so restored state is
// exact and adds no staleness, and the sketch keeps serving reads and writes
// throughout.
//
// The export deliberately folds live shard snapshots (mergeEpoch), never a
// materialized view: a checkpoint's fold floor must be the S·r relaxation
// bound, independent of any view's refresh lag.

// ViewSettings returns the ViewConfig a currently enabled view was built
// with, and whether one is enabled — the introspection hook checkpointing
// needs to record view settings for restore.
func (s *Sharded[T, A, C]) ViewSettings() (ViewConfig, bool) {
	vr := s.vr.Load()
	if vr == nil {
		return ViewConfig{}, false
	}
	return vr.cfg, true
}

// AppendSnapshot appends the sketch's merged snapshot body (the family
// accumulator's ExportTo layout) to dst: fold the entire published state
// into a pooled accumulator, append its export body, release the
// accumulator. Steady-state zero-alloc once dst has grown to the working
// size.
func (s *Sharded[T, A, C]) AppendSnapshot(dst []byte) []byte {
	acc := s.acquire()
	mergeEpoch(s.st.Load(), acc)
	dst = acc.ExportTo(dst)
	s.release(acc)
	return dst
}

// ImportSnapshot folds a snapshot body produced by AppendSnapshot into the
// sketch's legacy accumulator: a private accumulator holding the current
// legacy state (if any) imports the body on top. Invalid input fails with
// the family's typed errors (ErrCorrupt, ErrSnapshotMismatch) and leaves the
// sketch unchanged. On success the new legacy is published atomically:
// concurrent queries see the imported state either entirely or not at all,
// and ingestion is never paused. Serialised with Resize/Close; importing
// after Close is an error.
func (s *Sharded[T, A, C]) ImportSnapshot(blob []byte) error {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: ImportSnapshot after Close")
	}
	cur := s.st.Load()
	// The new legacy must be a fresh, never-pooled accumulator: once
	// published it is shared read-only by every query (same rule as Resize).
	legacy := s.mkAcc()
	if cur.hasLegacy {
		cur.legacy.FoldInto(legacy)
	}
	if err := legacy.ImportFrom(blob); err != nil {
		return err
	}
	next := *cur
	next.legacy, next.hasLegacy = legacy, true
	s.st.Store(&next)
	// A materialized view, if enabled, picks the import up on its next
	// refresh; fold it in eagerly so view-served queries don't lag the
	// import by a refresh interval.
	s.RefreshViewNow()
	return nil
}
