package shard

import (
	"fmt"
	"time"

	"fastsketches/internal/clock"
)

// Sliding-window plane of the sharded layer. A window turns the sketch into
// a ring of per-interval sub-sketches covering the live interval plus the
// last Slots closed intervals. Every Interval the rotator closes the live
// interval into a ring slot through the same epoch swap Resize uses, so the
// drain is exact, refreshes a materialized suffix-merge of all closed
// slots, and expels the oldest slot into the cumulative legacy plane once
// the ring is full, so cumulative queries never lose it. Windowed queries
// fold the suffix-merge plus the live shard snapshots: O(1) in the slot
// count, zero-alloc through the same pooled accumulators as cumulative
// queries, and the staleness bound composes as S·r plus at most one
// rotation interval of window-boundary skew (see docs/ARCHITECTURE.md).
//
// Decay ∈ (0,1) additionally maintains an exponentially time-decayed plane:
// on every rotation the decayed accumulator is scaled by Decay and the
// freshly closed slot folded in, so a count observed k rotations ago
// contributes with weight Decay^k. Scaling requires linearly scalable
// counters (the scalable interface), which of the four families only
// Count-Min provides; declaring Decay on a family without it is an error.
//
// All window mutation — rotation, enable/disable, checkpoint export,
// restore — is serialised by resizeMu; readers only ever touch the
// immutable planes of the epochWindow published on the epoch pointer.

// MaxWindowSlots bounds the ring length: far above any sane window, low
// enough that a corrupt checkpoint or a malicious wire frame cannot make a
// process build millions of per-interval accumulators.
const MaxWindowSlots = 1 << 16

// WindowConfig declares one sliding window: rotate every Interval, retain
// the last Slots closed intervals (the covered span is the live interval
// plus Slots·Interval), and optionally maintain an exponential decay plane.
type WindowConfig struct {
	// Interval is the rotation period. Defaults to one minute.
	Interval time.Duration
	// Slots is the number of closed intervals retained in the ring.
	// Defaults to 6; must be in [1, MaxWindowSlots].
	Slots int
	// Decay, when in (0,1), enables the exponentially time-decayed plane:
	// each rotation scales it by Decay before folding in the freshly closed
	// interval. 0 disables decay; values outside [0,1) are rejected.
	Decay float64
	// Clock drives rotation pacing and interval timestamps. Defaults to the
	// system clock; inject a manual clock for deterministic tests.
	Clock clock.Clock
}

// Normalise fills defaults and validates the configuration.
func (c WindowConfig) Normalise() (WindowConfig, error) {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Slots == 0 {
		c.Slots = 6
	}
	if c.Slots < 1 || c.Slots > MaxWindowSlots {
		return c, fmt.Errorf("shard: window slot count %d outside [1, %d]", c.Slots, MaxWindowSlots)
	}
	if c.Decay < 0 || c.Decay >= 1 {
		return c, fmt.Errorf("shard: window decay %v outside [0, 1)", c.Decay)
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	return c, nil
}

// Same reports whether two configs declare the same window shape — interval,
// slot count and decay; the clock is pacing machinery, not shape, and is
// ignored. This is the declarative-open comparison: a Spec whose window is
// Same as the enabled one must not re-arm the rotator (which would discard
// ring contents).
func (c WindowConfig) Same(o WindowConfig) bool {
	return c.Interval == o.Interval && c.Slots == o.Slots && c.Decay == o.Decay
}

// scalable is the hook the decay plane requires: scale every counter by
// f ∈ (0,1), flooring. Of the four families only Count-Min counts are
// linearly scalable.
type scalable interface {
	ScaleBy(f float64)
}

// epochWindow is the published, immutable window query plane travelling on
// an epochState. merged is the suffix-merge of every closed ring slot (zero
// while the ring is empty); carry accumulates live-interval state drained
// by resizes since the last rotation (it belongs to the open interval, not
// to legacy); decayed is the exponential-decay plane when cfg.Decay ∈ (0,1).
// Like legacy, each plane is shared read-only by every querier once
// published, and a zero plane is absent.
type epochWindow[A Accumulator[A]] struct {
	cfg WindowConfig

	merged, carry, decayed A

	// liveStart is the UnixNano instant the live interval opened (the last
	// rotation, or enable/restore time).
	liveStart int64
	// rotations counts completed rotations since the window was enabled.
	rotations uint64

	// ring holds the closed slots, oldest first, in a backing array of
	// capacity cfg.Slots that every copy of the plane shares. Unlike the
	// planes above it is mutable: touched only under resizeMu (rotation,
	// checkpoint export), never by queries — they read the suffix-merge
	// instead. It lives on the epoch, not with the rotator job, so it
	// survives Close for a final checkpoint.
	ring []A
}

// EnableWindow declares a sliding window on this sketch and schedules the
// rotator on cfg.Clock: every cfg.Interval the live interval is closed into
// a ring slot holding the last cfg.Slots closed intervals. Cumulative
// queries are unchanged — closed-slot state reaches them through the
// window's suffix-merge, expelled state through legacy — while
// WindowQueryInto and the family Window* queries cover exactly the window.
// It is RestoreWindow with an empty ring, and fails like it.
func (s *Sharded[T, A, C]) EnableWindow(cfg WindowConfig) error {
	return s.RestoreWindow(cfg, nil, nil)
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
	next := *s.st.Load()
	if w := next.win; w != nil {
		next.legacy = s.fresh(next.legacy, w.merged, w.carry)
		next.win = nil
		s.st.Store(&next)
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

// rotateLocked performs one rotation under resizeMu:
//
//  1. swap to a fresh epoch of the same shard count: new updates belong to
//     the next interval from the publish instant, and every update of the
//     closing interval ends up exactly in the drained composables
//     (stragglers that loaded the new epoch land in the next interval —
//     counted once, later, never lost).
//  2. Fold carry + the drained shards into a new slot. If the ring is full,
//     expel the oldest slot into a fresh legacy accumulator (cumulative
//     queries see it there from the same epoch store that removes it from
//     the window).
//  3. Push the slot, refresh the suffix-merge, and advance the decay plane
//     (decayed' = Decay·decayed + slot).
//  4. Publish the swapped epoch carrying the new window plane — one atomic
//     store moves the interval from live snapshots into the suffix-merge,
//     so no query ever double-counts or misses it.
func (s *Sharded[T, A, C]) rotateLocked() {
	st := s.st.Load()
	w := st.win
	if w == nil {
		return
	}
	old, next := s.swap(len(st.comps))
	win := *w
	win.carry = *new(A)
	slot := s.fresh(w.carry)
	foldGroup(slot, old.comps)
	if len(w.ring) == w.cfg.Slots {
		next.legacy = s.fresh(old.legacy, w.ring[0])
		win.ring = append(w.ring[:0], w.ring[1:]...)
	}
	win.ring = append(win.ring, slot)
	win.merged = s.fresh(win.ring...)
	if w.cfg.Decay > 0 {
		win.decayed = s.fresh(w.decayed)
		any(win.decayed).(scalable).ScaleBy(w.cfg.Decay)
		slot.FoldInto(win.decayed)
	}
	win.liveStart = w.cfg.Clock.Now().UnixNano()
	win.rotations++
	next.win = &win
	s.st.Store(&next)
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
	foldPlane(w.merged, acc)
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
	foldPlane(w.decayed, acc)
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
	foldPlane(st.legacy, acc)
	foldOpen(st, acc)
	out = acc.ExportTo(dst)
	s.release(acc)
	if w == nil {
		return out, nil, nil
	}
	for _, sl := range w.ring {
		slots = append(slots, sl.ExportTo(nil))
	}
	if w.decayed != *new(A) {
		decayed = w.decayed.ExportTo(nil)
	}
	return out, slots, decayed
}

// RestoreWindow arms a window from checkpointed state and schedules the
// rotator on cfg.Clock with a fresh live interval: the closed slots (oldest
// first) are imported into fresh ring accumulators, the suffix-merge built
// from them, and the decay plane imported if present. The base blob must
// already have been imported (ImportSnapshot → legacy): it excludes the
// closed slots, so cumulative queries, which fold the suffix-merge beside
// legacy (mergeEpoch), count each restored slot exactly once. With no slots
// and no decay plane it arms an empty window — EnableWindow.
//
// cfg.Decay requires a family whose accumulator has linearly scalable
// counters (Count-Min); declaring it elsewhere is an error. Errors too if a
// window is already enabled, the sketch is closed, or the slots exceed the
// ring. The rotator is stopped by DisableWindow or Close.
func (s *Sharded[T, A, C]) RestoreWindow(cfg WindowConfig, slotBlobs [][]byte, decayedBlob []byte) error {
	cfg, err := cfg.Normalise()
	if err != nil {
		return err
	}
	if len(slotBlobs) > cfg.Slots {
		return fmt.Errorf("shard: RestoreWindow with %d slots into a %d-slot ring", len(slotBlobs), cfg.Slots)
	}
	if _, ok := any(*new(A)).(scalable); cfg.Decay > 0 && !ok {
		return fmt.Errorf("shard: window decay requires linearly scalable counters (Count-Min); this family has none")
	}
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: window armed after Close")
	}
	if s.rotator != nil {
		return fmt.Errorf("shard: window already enabled")
	}
	win := &epochWindow[A]{
		cfg:       cfg,
		liveStart: cfg.Clock.Now().UnixNano(),
		ring:      make([]A, 0, cfg.Slots),
	}
	for _, b := range slotBlobs {
		sl := s.mkAcc()
		if err := sl.ImportFrom(b); err != nil {
			return err
		}
		win.ring = append(win.ring, sl)
	}
	if len(win.ring) > 0 {
		win.merged = s.fresh(win.ring...)
	}
	if decayedBlob != nil {
		win.decayed = s.mkAcc()
		if err := win.decayed.ImportFrom(decayedBlob); err != nil {
			return err
		}
	}
	next := *s.st.Load()
	next.win = win
	s.st.Store(&next)
	s.schedule(&s.rotator, cfg.Clock, cfg.Interval, s.rotateLocked)
	return nil
}
