package shard

import (
	"fmt"
	"time"

	"fastsketches/internal/window"
)

// Sliding-window plane of the sharded layer. A window turns the sketch into
// a ring of per-interval sub-sketches: every Interval the rotator closes the
// live interval — an epoch swap identical to Resize's, so the drain is exact
// — into a ring slot, refreshes a materialized suffix-merge of all closed
// slots, and expels the oldest slot into the cumulative legacy plane once
// the ring is full. Windowed queries fold the suffix-merge plus the live
// shard snapshots: O(1) in the slot count, zero-alloc through the same
// pooled accumulators as cumulative queries, and the staleness bound
// composes as S·r plus at most one rotation interval of window-boundary
// skew (see docs/ARCHITECTURE.md).
//
// All window mutation — rotation, enable/disable, checkpoint export,
// restore — is serialised by resizeMu; readers only ever touch the
// immutable planes of the epochWindow published on the epoch pointer.

// WindowConfig declares a sliding window on a sharded sketch; see
// window.Config for field semantics.
type WindowConfig = window.Config

// epochWindow is the published, immutable window query plane travelling on
// an epochState. merged is the suffix-merge of every closed ring slot;
// carry accumulates live-interval state drained by resizes since the last
// rotation (it belongs to the open interval, not to legacy); decayed is the
// exponential-decay plane when cfg.Decay ∈ (0,1). Like legacy, each plane
// is shared read-only by every querier once published.
type epochWindow[A window.Acc[A]] struct {
	cfg window.Config

	merged     A
	hasMerged  bool
	carry      A
	hasCarry   bool
	decayed    A
	hasDecayed bool

	// liveStart is the UnixNano instant the live interval opened (the last
	// rotation, or enable/restore time).
	liveStart int64
	// rotations counts completed rotations since the window was enabled.
	rotations uint64

	// ring holds the closed slots. Unlike the planes above it is mutable:
	// touched only under resizeMu (rotation, checkpoint export), never by
	// queries — they read the suffix-merge instead. It lives on the epoch,
	// not with the rotator job, so it survives Close for a final checkpoint.
	ring *window.Ring[A]
}

// EnableWindow declares a sliding window on this sketch and schedules the
// rotator on cfg.Clock: every cfg.Interval the live interval is closed into
// a ring slot holding the last cfg.Slots closed intervals (see the package
// comment for the full protocol). Cumulative queries are unchanged —
// closed-slot state reaches them through the window's suffix-merge, expelled
// state through legacy — while WindowQueryInto and the family Window*
// queries cover exactly the window.
//
// cfg.Decay requires a family whose accumulator has linearly scalable
// counters (Count-Min); declaring it elsewhere is an error. The rotator is
// stopped by DisableWindow or Close. Enabling a window on a sketch that
// already has one is an error; enabling after Close is an error.
func (s *Sharded[T, A, C]) EnableWindow(cfg WindowConfig) error {
	cfg, err := cfg.Normalise()
	if err != nil {
		return err
	}
	if cfg.Decay > 0 {
		if _, ok := any(s.mkAcc()).(window.Scalable); !ok {
			return fmt.Errorf("shard: window decay requires linearly scalable counters (Count-Min); this family has none")
		}
	}
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: EnableWindow after Close")
	}
	if s.rotator != nil {
		return fmt.Errorf("shard: window already enabled")
	}
	st := s.st.Load()
	next := &epochState[T, A, C]{
		comps: st.comps, g: st.g, old: st.old,
		legacy: st.legacy, hasLegacy: st.hasLegacy,
		basePressure: st.basePressure,
		win: &epochWindow[A]{
			cfg:       cfg,
			liveStart: cfg.Clock.Now().UnixNano(),
			ring:      window.NewRing[A](cfg.Slots),
		},
	}
	s.st.Store(next)
	s.schedule(&s.rotator, cfg.Clock, cfg.Interval, s.rotateLocked)
	return nil
}

// DisableWindow stops the rotator and collapses the window's planes —
// suffix-merge and carry — into a fresh legacy accumulator, published on
// the same atomic epoch store that drops the window, so cumulative queries
// keep their answers to the instant and windowed queries stop resolving.
// Returns false if no window was enabled. Idempotent and safe concurrently
// with queries.
func (s *Sharded[T, A, C]) DisableWindow() bool {
	s.resizeMu.Lock()
	stop := s.unschedule(&s.rotator)
	if stop == nil {
		s.resizeMu.Unlock()
		return false
	}
	st := s.st.Load()
	if w := st.win; w != nil {
		legacy := s.mkAcc()
		if st.hasLegacy {
			st.legacy.FoldInto(legacy)
		}
		if w.hasMerged {
			w.merged.FoldInto(legacy)
		}
		if w.hasCarry {
			w.carry.FoldInto(legacy)
		}
		next := &epochState[T, A, C]{
			comps: st.comps, g: st.g, old: st.old,
			legacy: legacy, hasLegacy: true,
			basePressure: st.basePressure,
		}
		s.st.Store(next)
	}
	s.resizeMu.Unlock()
	stop()
	return true
}

// RotateNow closes the live interval into the ring synchronously,
// independent of the periodic tick — the deterministic pacing hook for
// tests and stress drivers. Returns false if no window is enabled or the
// sketch is closed.
func (s *Sharded[T, A, C]) RotateNow() bool {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.rotator == nil {
		return false
	}
	s.rotateLocked()
	return true
}

// rotateLocked performs one rotation under resizeMu. The protocol reuses
// the Resize epoch swap for an exact drain of the closing interval:
//
//  1. Build and publish a fresh epoch of the same shard count with the
//     previous epoch attached as old — new updates belong to the next
//     interval from this instant, while queries keep folding both.
//  2. Writer grace period, then close the old epoch's frameworks: every
//     update of the closing interval now sits exactly in its composables
//     (stragglers that loaded the new epoch land in the next interval —
//     counted once, later, never lost).
//  3. If the ring is full, expel the oldest slot into a fresh legacy
//     accumulator (cumulative queries see it there from the same epoch
//     store that removes it from the window).
//  4. Fold carry + the drained shards into a (recycled) slot, push it,
//     refresh the suffix-merge, and advance the decay plane
//     (decayed' = Decay·decayed + slot).
//  5. Publish the retired epoch carrying the new window plane — one atomic
//     store moves the interval from live snapshots into the suffix-merge,
//     so no query ever double-counts or misses it.
func (s *Sharded[T, A, C]) rotateLocked() {
	st := s.st.Load()
	w := st.win
	if w == nil {
		return
	}
	built := s.newEpoch(len(st.comps))
	next := &epochState[T, A, C]{
		comps: built.comps, g: built.g, old: st,
		legacy: st.legacy, hasLegacy: st.hasLegacy,
		basePressure: st.basePressure, win: w,
	}
	s.st.Store(next)
	s.awaitWriters()
	st.g.close()

	legacy, hasLegacy := st.legacy, st.hasLegacy
	var slot A
	haveSlot := false
	if oldest, ok := w.ring.PopIfFull(); ok {
		nl := s.mkAcc()
		if hasLegacy {
			legacy.FoldInto(nl)
		}
		oldest.FoldInto(nl)
		legacy, hasLegacy = nl, true
		oldest.Reset()
		slot, haveSlot = oldest, true
	}
	if !haveSlot {
		slot = s.mkAcc()
	}
	if w.hasCarry {
		w.carry.FoldInto(slot)
	}
	foldGroup(slot, st.comps)
	w.ring.Push(slot)

	merged := s.mkAcc()
	w.ring.FoldAll(merged)
	var decayed A
	hasDecayed := false
	if w.cfg.Decay > 0 {
		decayed = s.mkAcc()
		if w.hasDecayed {
			w.decayed.FoldInto(decayed)
		}
		if sc, ok := any(decayed).(window.Scalable); ok {
			sc.ScaleBy(w.cfg.Decay)
		}
		slot.FoldInto(decayed)
		hasDecayed = true
	}

	retired := &epochState[T, A, C]{
		comps: next.comps, g: next.g,
		legacy: legacy, hasLegacy: hasLegacy,
		basePressure: st.basePressure.Add(st.g.pressure()),
		win: &epochWindow[A]{
			cfg:        w.cfg,
			merged:     merged,
			hasMerged:  true,
			decayed:    decayed,
			hasDecayed: hasDecayed,
			liveStart:  w.cfg.Clock.Now().UnixNano(),
			rotations:  w.rotations + 1,
			ring:       w.ring,
		},
	}
	s.st.Store(retired)
}

// windowMergeEpoch folds one epoch's windowed state — closed-slot
// suffix-merge ∪ resize carry ∪ draining old epoch ∪ current shard
// snapshots, everything inside the window, nothing before it — into acc.
// Returns false (acc untouched) when the epoch has no window.
func windowMergeEpoch[T any, A Accumulator[A], C Mergeable[T, A]](st *epochState[T, A, C], acc A) bool {
	w := st.win
	if w == nil {
		return false
	}
	if w.hasMerged {
		w.merged.FoldInto(acc)
	}
	foldOpen(st, acc)
	return true
}

// WindowMergeInto folds the sketch's windowed state — the live interval
// plus the last Slots closed intervals — into acc without resetting it.
// Wait-free like MergeInto: one epoch load, one suffix-merge fold (O(1) in
// the slot count), then the live shard folds. The result reflects all
// completed updates of the window except at most Relaxation() live lag,
// with the window boundary itself placed by the last rotation (at most one
// rotation interval plus rotation lag old). Returns false, leaving acc
// untouched, when no window is enabled.
func (s *Sharded[T, A, C]) WindowMergeInto(acc A) bool {
	return windowMergeEpoch(s.st.Load(), acc)
}

// WindowQueryInto resets acc and folds the sketch's windowed state into it
// — the windowed analogue of QueryInto, equally zero-alloc steady-state.
// Returns false (acc reset but empty) when no window is enabled.
func (s *Sharded[T, A, C]) WindowQueryInto(acc A) bool {
	acc.Reset()
	return s.WindowMergeInto(acc)
}

// DecayedMergeInto folds the sketch's exponentially time-decayed state —
// the decay plane (closed intervals at weights Decay^age) plus the live
// interval at weight 1 — into acc. Returns false when no window with
// Decay ∈ (0,1) is enabled.
func (s *Sharded[T, A, C]) DecayedMergeInto(acc A) bool {
	st := s.st.Load()
	w := st.win
	if w == nil || w.cfg.Decay <= 0 {
		return false
	}
	if w.hasDecayed {
		w.decayed.FoldInto(acc)
	}
	foldOpen(st, acc)
	return true
}

// DecayedQueryInto resets acc and folds the sketch's exponentially
// time-decayed state into it — the decayed analogue of QueryInto, equally
// zero-alloc steady-state. Returns false (acc reset but empty) when no
// window with Decay ∈ (0,1) is enabled.
func (s *Sharded[T, A, C]) DecayedQueryInto(acc A) bool {
	acc.Reset()
	return s.DecayedMergeInto(acc)
}

// WindowEnabled reports whether a sliding window is currently enabled.
func (s *Sharded[T, A, C]) WindowEnabled() bool { return s.st.Load().win != nil }

// WindowSettings returns the WindowConfig the enabled window was declared
// with, and whether one is enabled — the introspection hook declarative
// opens and checkpointing compare against. Wait-free: read off the epoch
// pointer, never a lock.
func (s *Sharded[T, A, C]) WindowSettings() (WindowConfig, bool) {
	w := s.st.Load().win
	if w == nil {
		return WindowConfig{}, false
	}
	return w.cfg, true
}

// WindowInfo is a wait-free introspection sample of the window plane, for
// Info/metrics scrapes: the declared shape, completed rotation count, the
// live interval's age on the window clock, and the rotation lag — how far
// the live interval has outlived the declared Interval (0 while the rotator
// keeps up; growth means a starved or stopped rotator).
type WindowInfo struct {
	Interval    time.Duration
	Slots       int
	Decay       float64
	Rotations   uint64
	LiveAge     time.Duration
	RotationLag time.Duration
}

// WindowStats returns the current WindowInfo sample and whether a window is
// enabled. Wait-free — one epoch load plus a clock read, never a lock — so
// a metrics scrape can sample every sketch without stalling rotations or
// resizes.
func (s *Sharded[T, A, C]) WindowStats() (WindowInfo, bool) {
	w := s.st.Load().win
	if w == nil {
		return WindowInfo{}, false
	}
	age := w.cfg.Clock.Now().Sub(time.Unix(0, w.liveStart))
	if age < 0 {
		age = 0
	}
	lag := age - w.cfg.Interval
	if lag < 0 {
		lag = 0
	}
	return WindowInfo{
		Interval:    w.cfg.Interval,
		Slots:       w.cfg.Slots,
		Decay:       w.cfg.Decay,
		Rotations:   w.rotations,
		LiveAge:     age,
		RotationLag: lag,
	}, true
}

// WindowEstimate answers the windowed distinct-count query: the union of
// the closed-slot suffix-merge and the live shard snapshots, through a
// pooled reused accumulator (no steady-state allocation). ok is false when
// no window is enabled.
func (t *Theta) WindowEstimate() (est float64, ok bool) {
	acc := t.acquire()
	ok = t.WindowMergeInto(acc)
	est = acc.Estimate()
	t.release(acc)
	return est, ok
}

// WindowEstimate answers the windowed distinct-count query over the window
// (register-wise max of suffix-merge and live snapshots). ok is false when
// no window is enabled.
func (h *HLL) WindowEstimate() (est float64, ok bool) {
	acc := h.acquire()
	ok = h.WindowMergeInto(acc)
	est = acc.Estimate()
	h.release(acc)
	return est, ok
}

// WindowQuantile returns an element of the windowed state whose normalized
// rank is ≈ phi. ok is false when no window is enabled.
func (q *Quantiles) WindowQuantile(phi float64) (v float64, ok bool) {
	acc := q.acquire()
	ok = q.WindowMergeInto(acc)
	v = acc.Quantile(phi)
	q.release(acc)
	return v, ok
}

// WindowN returns the item count of the windowed state. ok is false when no
// window is enabled.
func (q *Quantiles) WindowN() (n uint64, ok bool) {
	acc := q.acquire()
	ok = q.WindowMergeInto(acc)
	n = acc.N()
	q.release(acc)
	return n, ok
}

// WindowCount returns the windowed frequency estimate of key: counts from
// the live interval and the last Slots closed intervals only. ok is false
// when no window is enabled.
func (c *CountMin) WindowCount(key uint64) (est uint64, ok bool) {
	acc := c.acquire()
	ok = c.WindowMergeInto(acc)
	est = acc.Estimate(key)
	c.release(acc)
	return est, ok
}

// WindowN returns the total weight of the windowed state. ok is false when
// no window is enabled.
func (c *CountMin) WindowN() (n uint64, ok bool) {
	acc := c.acquire()
	ok = c.WindowMergeInto(acc)
	n = acc.N()
	c.release(acc)
	return n, ok
}

// DecayedCount returns the exponentially time-decayed frequency estimate of
// key: a count observed k rotations ago contributes with weight Decay^k,
// the live interval with weight 1. ok is false unless a window with
// Decay ∈ (0,1) is enabled.
func (c *CountMin) DecayedCount(key uint64) (est uint64, ok bool) {
	acc := c.acquire()
	ok = c.DecayedMergeInto(acc)
	est = acc.Estimate(key)
	c.release(acc)
	return est, ok
}

// AppendWindowedSnapshot is the checkpoint export path of a windowed
// sketch, all under one resizeMu hold so the split is rotation-consistent:
// the base blob appended to dst covers everything outside the closed ring
// slots (legacy ∪ carry ∪ live shards — restored into legacy), while each
// closed slot and the decay plane are exported as separate blobs for
// slot-by-slot restoration. Close stops the rotator but keeps the window
// plane and its ring, so an export after Close carries the same slots as
// one just before it. When no window is enabled it degrades to the plain
// cumulative export with an empty tail.
func (s *Sharded[T, A, C]) AppendWindowedSnapshot(dst []byte) (out []byte, slots [][]byte, decayed []byte) {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	st := s.st.Load()
	w := st.win
	acc := s.acquire()
	if st.hasLegacy {
		st.legacy.FoldInto(acc)
	}
	foldOpen(st, acc)
	out = acc.ExportTo(dst)
	s.release(acc)
	if w == nil {
		return out, nil, nil
	}
	for _, sl := range w.ring.Slots() {
		slots = append(slots, sl.ExportTo(nil))
	}
	if w.hasDecayed {
		decayed = w.decayed.ExportTo(nil)
	}
	return out, slots, decayed
}

// RestoreWindow rebuilds a window from checkpointed state: the closed slots
// (oldest first) are imported into fresh ring accumulators, the
// suffix-merge is refreshed, the decay plane imported if present, and the
// rotator scheduled with a fresh live interval. The base blob must already
// have been imported (ImportSnapshot → legacy): it excludes the closed
// slots, so cumulative queries, which fold the suffix-merge beside legacy
// (mergeEpoch), count each restored slot exactly once. Errors if a window is
// already enabled or the slots exceed the ring.
func (s *Sharded[T, A, C]) RestoreWindow(cfg WindowConfig, slotBlobs [][]byte, decayedBlob []byte) error {
	cfg, err := cfg.Normalise()
	if err != nil {
		return err
	}
	if len(slotBlobs) > cfg.Slots {
		return fmt.Errorf("shard: RestoreWindow with %d slots into a %d-slot ring", len(slotBlobs), cfg.Slots)
	}
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: RestoreWindow after Close")
	}
	if s.rotator != nil {
		return fmt.Errorf("shard: window already enabled")
	}
	ring := window.NewRing[A](cfg.Slots)
	merged := s.mkAcc()
	for _, b := range slotBlobs {
		sl := s.mkAcc()
		if err := sl.ImportFrom(b); err != nil {
			return err
		}
		ring.Push(sl)
		sl.FoldInto(merged)
	}
	var decayed A
	hasDecayed := false
	if decayedBlob != nil {
		decayed = s.mkAcc()
		if err := decayed.ImportFrom(decayedBlob); err != nil {
			return err
		}
		hasDecayed = true
	}
	next := *s.st.Load()
	next.win = &epochWindow[A]{
		cfg:        cfg,
		merged:     merged,
		hasMerged:  true,
		decayed:    decayed,
		hasDecayed: hasDecayed,
		liveStart:  cfg.Clock.Now().UnixNano(),
		ring:       ring,
	}
	s.st.Store(&next)
	s.schedule(&s.rotator, cfg.Clock, cfg.Interval, s.rotateLocked)
	return nil
}
