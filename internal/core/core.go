// Package core implements the generic concurrent sketch framework of
// "Fast Concurrent Data Sketches" (Rinberg et al., PPoPP 2020), Section 5.
//
// The framework turns any composable sequential sketch into a concurrent one:
// N writer goroutines ingest stream elements into thread-local buffers, and a
// single background propagator goroutine merges filled buffers into a shared
// composable ("global") sketch that query threads read wait-free. Writers and
// the propagator synchronise exclusively through one atomic word per writer
// (prop_i), so the steady-state ingestion path is fence-free except for one
// atomic store per b retained items.
//
// Two variants are provided, exactly as in the paper's Algorithm 2:
//
//   - ParSketch (ModeUnoptimised): one local buffer per writer; the writer
//     publishes prop_i = 0 and blocks until the propagator merges the buffer
//     and returns a fresh hint. Relaxation: r = N·b.
//   - OptParSketch (ModeOptimised): two local buffers per writer (double
//     buffering); the writer flips to the fresh buffer, publishes the filled
//     one, and keeps ingesting without waiting. Relaxation: r = 2·N·b.
//
// The framework is strongly linearisable with respect to the r-relaxed
// sequential specification of the underlying sketch (Theorem 1 of the paper):
// a query may miss at most r of the updates that precede it.
//
// For small streams the additive error r can dominate, so the framework
// adapts (Section 5.3): until the stream exceeds a configurable limit
// (2/e² by default), writers update the global sketch directly under a lock
// — sequential semantics, zero relaxation error — and then switch to the
// buffered lazy path for the remainder of the stream.
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Global is the composable-sketch interface the framework is instantiated
// with (Section 5.1 of the paper). The type parameter T is the element type
// after any caller-side preprocessing — raw 64-bit hashes for Θ sketches,
// float64 values for Quantiles.
//
// MergeBuffer and DirectUpdate mutate the sketch and are serialised by the
// framework (MergeBuffer is called only by the propagator goroutine;
// DirectUpdate only under the eager-phase lock, which is released before the
// first MergeBuffer can happen). Snapshot-style queries are provided by the
// concrete composable type and must be safe to run concurrently with
// MergeBuffer — that is the composability contract.
type Global[T any] interface {
	// MergeBuffer folds a batch of pre-filtered elements into the sketch
	// and refreshes the published snapshot. Propagator goroutine only.
	MergeBuffer(items []T)
	// DirectUpdate applies a single element during the eager phase. Called
	// only while the framework's eager lock is held.
	DirectUpdate(item T)
	// CalcHint returns the current pre-filtering hint. It must never return
	// zero — zero is reserved to mean "propagation pending" on the prop_i
	// channel between writer and propagator.
	CalcHint() uint64
	// ShouldAdd reports whether an element can still affect the sketch
	// given a (possibly stale) hint. It must be conservative: if it returns
	// false, the element must be provably irrelevant to every future state
	// (the paper's summary-preservation condition). A trivial
	// implementation returns true always.
	ShouldAdd(hint uint64, item T) bool
}

// Mode selects between the paper's two algorithm variants.
type Mode int

const (
	// ModeOptimised is OptParSketch: double-buffered writers that do not
	// block while their filled buffer is being propagated. r = 2·N·b.
	ModeOptimised Mode = iota
	// ModeUnoptimised is ParSketch: single-buffered writers that block
	// during propagation. r = N·b.
	ModeUnoptimised
)

func (m Mode) String() string {
	switch m {
	case ModeOptimised:
		return "OptParSketch"
	case ModeUnoptimised:
		return "ParSketch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises a Framework.
type Config struct {
	// Workers is N, the number of writer lanes. Each lane must be used by
	// at most one goroutine at a time.
	Workers int
	// BufferSize is b, the number of retained items a writer buffers
	// between propagations. If 0 it is derived via DeriveBufferSize from
	// MaxError, K and Workers.
	BufferSize int
	// Mode selects OptParSketch (default) or ParSketch.
	Mode Mode
	// MaxError is e, the maximum additional relative error the user will
	// tolerate from concurrency on small streams (Section 5.3). Values ≥ 1
	// disable the eager phase entirely (the paper's e = 1.0 configuration).
	MaxError float64
	// K is the accuracy parameter of the underlying sketch (sample count),
	// used only to derive BufferSize when it is 0.
	K int
	// EagerLimit overrides the stream length at which the framework stops
	// eager propagation. 0 derives the paper's 2/e².
	EagerLimit int
}

// DeriveBufferSize computes the local buffer size b from the sketch accuracy
// parameter k, the concurrency error budget e, and the writer count n, such
// that the weak-adversary relative bias r/(k+r−1) with r = 2·n·b stays below
// e (Section 6.1), clamped to [1, 16]. For e ≥ 1 (eager disabled) it returns
// the default 16.
func DeriveBufferSize(k int, e float64, n int) int {
	const bMax = 16
	if e >= 1 || k <= 2 || n < 1 {
		return bMax
	}
	b := int(e * float64(k-2) / ((1 - e) * 2 * float64(n)))
	if b < 1 {
		return 1
	}
	if b > bMax {
		return bMax
	}
	return b
}

// DeriveEagerLimit returns the paper's eager-phase length 2/e² for error
// budget e (0 when the eager phase is disabled).
func DeriveEagerLimit(e float64) int {
	if e >= 1 || e <= 0 {
		return 0
	}
	return int(2 / (e * e))
}

// cacheLinePad separates hot per-writer state from its neighbours so writer
// lanes do not false-share.
type cacheLinePad [8]uint64

// writer is one ingestion lane (the paper's thread t_i state, lines 104-109).
type writer[T any] struct {
	_ cacheLinePad
	// prop is the single synchronisation word between this writer and the
	// propagator: 0 means "filled buffer awaiting propagation"; any other
	// value is the freshest hint, stored by the propagator when the merge
	// completed. All other fields are plain because every cross-goroutine
	// hand-off is ordered by a store/load of prop.
	prop atomic.Uint64
	// buf[cur] is the buffer being filled; in OptParSketch buf[1-cur] is
	// the one being propagated. ParSketch uses only buf[0].
	buf  [2][]T
	cur  int
	hint uint64
	// hintParked/hintWake are the writer-side park/wake handshake of
	// awaitHint, mirroring the propagator's: a writer blocked on a pending
	// propagation publishes hintParked and parks; the propagator posts a
	// token after storing the fresh hint if it observes the park. Same
	// lost-wakeup argument as propParked (sequentially consistent store/load
	// pairs on prop and hintParked, in opposite orders on the two sides).
	hintParked atomic.Bool
	hintWake   chan struct{}
	// seenLazy caches "the framework has left the eager phase" so the hot
	// path re-checks the shared mode flag only while it still matters.
	seenLazy bool
	// updates counts items accepted into buffers or eagerly applied (after
	// pre-filtering); read only after quiescence.
	updates int64
	// filtered counts items discarded by ShouldAdd; read after quiescence.
	filtered int64
	_        cacheLinePad
}

// PressureSample is a wait-free snapshot of a framework's ingest-pressure
// counters, the signal plane the ops layer samples. Both counters are
// cumulative and monotonically non-decreasing over the framework's lifetime:
//
//   - Ingested counts items handed to the propagation plane — buffered items
//     at the instant their buffer is published (counted once per publication,
//     so the writer hot path pays one extra atomic add per b items, on the
//     step that already pays a fence) plus eager-phase direct updates.
//   - Merged counts items the propagator (or the Close drain) has folded
//     into the global sketch.
//
// Items discarded by pre-filtering (ShouldAdd false) appear in neither
// counter: they never reach the propagator, so they exert no propagation
// pressure — which is exactly the pressure sharding parallelises.
//
// The two counters are read separately, so a sample is not an atomic pair;
// Merged is read first, which keeps Backlog non-negative up to the clamp.
type PressureSample struct {
	Ingested int64
	Merged   int64
}

// Backlog returns the published-but-not-yet-merged item count of the sample:
// how far the propagator is behind the writers. Clamped at zero (the two
// counters are sampled separately, so tiny transient skews are possible).
func (p PressureSample) Backlog() int64 {
	if b := p.Ingested - p.Merged; b > 0 {
		return b
	}
	return 0
}

// Add returns the element-wise sum of two samples, for aggregating pressure
// across the frameworks of a shard group.
func (p PressureSample) Add(q PressureSample) PressureSample {
	return PressureSample{Ingested: p.Ingested + q.Ingested, Merged: p.Merged + q.Merged}
}

// Framework is the generic concurrent sketch: the paper's OptParSketch /
// ParSketch object. Create with New, then Start the propagator, have each
// writer goroutine call Update on its own lane, and Close when ingestion is
// done. Queries go through the composable global sketch and may run at any
// time, including concurrently with updates.
type Framework[T any] struct {
	global  Global[T]
	cfg     Config
	b       int
	writers []*writer[T]

	// ingested/merged are the PressureSample counters. They live on the
	// framework, not the writer, because they are amortised: writers touch
	// ingested once per buffer publication, the propagator touches merged
	// once per merge — never once per update on the lazy path.
	ingested atomic.Int64
	merged   atomic.Int64

	// Eager phase (Section 5.3): guarded by a spin-free mutex-like CAS on
	// eagerState. lazy flips exactly once, eager→lazy.
	lazy       atomic.Bool
	eagerLock  atomic.Bool // spinlock protecting eagerCount + DirectUpdate
	eagerCount int
	eagerLimit int

	// propParked/propWake are the propagator's park/wake handshake: instead
	// of polling writer lanes with yields and naps while idle (whose wake
	// latency a publishing writer then eats in awaitHint), the propagator
	// publishes itself parked and blocks on propWake; a writer that publishes
	// a buffer (prop_i ← 0) and observes propParked posts a token. Sequential
	// consistency of the prop-store/parked-load vs parked-store/prop-scan
	// pairs rules out the lost wakeup.
	propParked atomic.Bool
	propWake   chan struct{}

	stopped atomic.Bool
	started atomic.Bool
	done    chan struct{}
}

// New builds a Framework over the given composable global sketch.
func New[T any](global Global[T], cfg Config) *Framework[T] {
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("core: Workers must be ≥ 1, got %d", cfg.Workers))
	}
	b := cfg.BufferSize
	if b == 0 {
		b = DeriveBufferSize(cfg.K, cfg.MaxError, cfg.Workers)
	}
	if b < 1 {
		panic(fmt.Sprintf("core: BufferSize must be ≥ 1, got %d", b))
	}
	limit := cfg.EagerLimit
	if limit == 0 {
		limit = DeriveEagerLimit(cfg.MaxError)
	}
	f := &Framework[T]{
		global:     global,
		cfg:        cfg,
		b:          b,
		eagerLimit: limit,
		propWake:   make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	hint := global.CalcHint()
	if hint == 0 {
		panic("core: CalcHint returned the reserved value 0")
	}
	eager := limit > 0
	if !eager {
		f.lazy.Store(true)
	}
	f.writers = make([]*writer[T], cfg.Workers)
	for i := range f.writers {
		w := &writer[T]{hint: hint, seenLazy: !eager, hintWake: make(chan struct{}, 1)}
		w.buf[0] = make([]T, 0, b)
		if cfg.Mode == ModeOptimised {
			w.buf[1] = make([]T, 0, b)
		}
		// prop starts at the initial hint: "no propagation pending".
		w.prop.Store(hint)
		f.writers[i] = w
	}
	return f
}

// BufferSize returns the effective local buffer size b.
func (f *Framework[T]) BufferSize() int { return f.b }

// Relaxation returns r, the maximum number of preceding updates a query may
// miss: 2·N·b for OptParSketch, N·b for ParSketch (Theorem 1 / Lemma 1).
func (f *Framework[T]) Relaxation() int {
	if f.cfg.Mode == ModeOptimised {
		return 2 * f.cfg.Workers * f.b
	}
	return f.cfg.Workers * f.b
}

// Workers returns N.
func (f *Framework[T]) Workers() int { return f.cfg.Workers }

// Start launches the background propagator goroutine.
func (f *Framework[T]) Start() {
	if f.started.Swap(true) {
		panic("core: Framework started twice")
	}
	go f.propagate()
}

// Update ingests one element on writer lane wid. Each lane must be driven by
// a single goroutine at a time (lanes are the paper's update threads t_i).
func (f *Framework[T]) Update(wid int, item T) {
	w := f.writers[wid]
	if !w.seenLazy {
		if f.eagerUpdate(w, item) {
			return
		}
		// The framework has switched to the lazy phase; from now on take
		// the buffered path directly and pick up a fresh hint.
		w.seenLazy = true
		w.hint = f.global.CalcHint()
	}
	if !f.global.ShouldAdd(w.hint, item) {
		w.filtered++
		return
	}
	w.updates++
	w.buf[w.cur] = append(w.buf[w.cur], item)
	if len(w.buf[w.cur]) < f.b {
		return
	}
	f.flushLocal(w)
}

// UpdateBatch ingests a contiguous chunk of elements on writer lane wid,
// equivalent to calling Update for each element in order but with the
// per-item overhead hoisted out of the loop: the eager-phase check happens
// once per chunk (a prefix is applied under a single eager-lock acquisition
// with the pressure counters advanced once), and on the lazy path the
// buffer-slot and mode checks run once per buffer fill rather than once per
// item, so the inner loop is ShouldAdd + append. The same single-goroutine-
// per-lane discipline as Update applies.
func (f *Framework[T]) UpdateBatch(wid int, items []T) {
	if len(items) == 0 {
		return
	}
	w := f.writers[wid]
	if !w.seenLazy {
		items = f.eagerUpdateBatch(w, items)
		if len(items) == 0 {
			return
		}
		w.seenLazy = true
		w.hint = f.global.CalcHint()
	}
	for len(items) > 0 {
		buf := w.buf[w.cur]
		// Take at most the buffer's remaining room this pass; filtered
		// items do not consume room, so the pass may underfill and loop.
		n := f.b - len(buf)
		if n > len(items) {
			n = len(items)
		}
		accepted := 0
		for _, item := range items[:n] {
			if f.global.ShouldAdd(w.hint, item) {
				buf = append(buf, item)
				accepted++
			}
		}
		w.updates += int64(accepted)
		w.filtered += int64(n - accepted)
		w.buf[w.cur] = buf
		items = items[n:]
		if len(buf) >= f.b {
			f.flushLocal(w)
		}
	}
}

// flushLocal publishes the writer's filled current buffer to the propagator
// — the paper's lines 124-129, shared by Update and UpdateBatch.
func (f *Framework[T]) flushLocal(w *writer[T]) {
	if f.cfg.Mode == ModeUnoptimised {
		// ParSketch, lines 124-125: publish, then block until the
		// propagator has merged the (single) buffer and returned a hint.
		f.ingested.Add(int64(len(w.buf[w.cur])))
		f.publish(w)
		w.hint = f.awaitHint(w)
		return
	}
	// OptParSketch, lines 125-129: wait for the previous propagation (if
	// still in flight), adopt its hint, flip to the fresh buffer, and
	// publish the filled one.
	w.hint = f.awaitHint(w)
	w.cur = 1 - w.cur
	f.ingested.Add(int64(len(w.buf[1-w.cur])))
	f.publish(w)
}

// publish stores the "propagation pending" sentinel on the writer's prop
// word and wakes the propagator if it parked itself while idle.
func (f *Framework[T]) publish(w *writer[T]) {
	w.prop.Store(0)
	if f.propParked.Load() {
		select {
		case f.propWake <- struct{}{}:
		default:
		}
	}
}

// hintSpins is how many times awaitHint polls the prop word (yielding
// between polls) before parking. Package variable so tests can force the
// park path deterministically.
var hintSpins = 8

// awaitHint waits until the propagator posts a non-zero hint on w.prop:
// a few yielding polls (the propagation usually completes within the
// writer's next buffer fill), then park until the propagator's wake. A
// token posted after the writer already observed the hint stays in the
// buffered channel and at worst causes one spurious loop iteration on a
// later wait; the loop re-checks prop, so it is never trusted by itself.
func (f *Framework[T]) awaitHint(w *writer[T]) uint64 {
	for i := 0; i < hintSpins; i++ {
		if h := w.prop.Load(); h != 0 {
			return h
		}
		runtime.Gosched()
	}
	w.hintParked.Store(true)
	for {
		if h := w.prop.Load(); h != 0 {
			w.hintParked.Store(false)
			return h
		}
		<-w.hintWake
	}
}

// eagerUpdate applies item directly to the global sketch if the framework is
// still in the eager phase, returning false once it has switched to lazy.
func (f *Framework[T]) eagerUpdate(w *writer[T], item T) bool {
	if f.lazy.Load() {
		return false
	}
	// Spinlock: the eager phase is short (≤ 2/e² updates) and contention is
	// the sequential bottleneck the paper accepts for small streams.
	for !f.eagerLock.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	if f.lazy.Load() {
		f.eagerLock.Store(false)
		return false
	}
	f.global.DirectUpdate(item)
	w.updates++
	// An eager update is visible immediately: it enters and leaves the
	// propagation plane in one step (both adds happen under the eager lock,
	// whose contention the paper already accepts for small streams).
	f.ingested.Add(1)
	f.merged.Add(1)
	f.eagerCount++
	if f.eagerCount >= f.eagerLimit {
		f.lazy.Store(true)
	}
	f.eagerLock.Store(false)
	return true
}

// eagerUpdateBatch applies as much of items as the eager budget allows
// directly to the global sketch under a single eager-lock acquisition,
// returning the unconsumed suffix (empty when the whole chunk was applied
// eagerly; the full chunk when the framework had already gone lazy). The
// pressure counters advance once for the whole prefix rather than once per
// item — the counter totals are identical to the per-item path, only the
// number of atomic adds changes.
func (f *Framework[T]) eagerUpdateBatch(w *writer[T], items []T) []T {
	if f.lazy.Load() {
		return items
	}
	for !f.eagerLock.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	if f.lazy.Load() {
		f.eagerLock.Store(false)
		return items
	}
	// Not lazy under the lock ⇒ eagerCount < eagerLimit, so n ≥ 1.
	n := f.eagerLimit - f.eagerCount
	if n > len(items) {
		n = len(items)
	}
	for _, item := range items[:n] {
		f.global.DirectUpdate(item)
	}
	w.updates += int64(n)
	f.ingested.Add(int64(n))
	f.merged.Add(int64(n))
	f.eagerCount += n
	if f.eagerCount >= f.eagerLimit {
		f.lazy.Store(true)
	}
	f.eagerLock.Store(false)
	return items[n:]
}

// propSpins is how many empty scans the propagator makes (yielding between
// scans) before parking on its wake channel. Package variable so tests can
// force the park path deterministically.
var propSpins = 8

// propagate is the background propagator thread t_0 (lines 110-115): scan
// writer lanes, merge any filled buffer into the global sketch, reset it,
// and post the fresh hint.
//
// The paper's propagator busy-spins on a dedicated core. To behave well on
// machines with fewer cores than goroutines, ours parks when idle: after a
// few empty scans it publishes propParked and blocks until a writer's
// publication wakes it, so an idle framework consumes no CPU and a
// publication's wake latency is one channel hand-off rather than the
// remainder of a polling nap. Parking never loses a publication: the
// propagator rechecks every lane after publishing propParked, so either it
// sees the writer's prop store or the writer sees propParked and posts the
// wake token (the atomics are sequentially consistent).
func (f *Framework[T]) propagate() {
	defer close(f.done)
	idle := 0
	for !f.stopped.Load() {
		work := false
		for _, w := range f.writers {
			if w.prop.Load() != 0 {
				continue
			}
			idx := w.cur // ParSketch: the only buffer
			if f.cfg.Mode == ModeOptimised {
				idx = 1 - w.cur // OptParSketch: the one the writer flipped away from
			}
			if buf := w.buf[idx]; len(buf) > 0 {
				f.global.MergeBuffer(buf)
				f.merged.Add(int64(len(buf)))
				w.buf[idx] = buf[:0]
			}
			w.prop.Store(f.global.CalcHint())
			if w.hintParked.Load() {
				select {
				case w.hintWake <- struct{}{}:
				default:
				}
			}
			work = true
		}
		if work {
			idle = 0
			continue
		}
		if idle++; idle < propSpins {
			runtime.Gosched()
			continue
		}
		f.propParked.Store(true)
		if f.pendingPublication() || f.stopped.Load() {
			f.propParked.Store(false)
			idle = 0
			continue
		}
		<-f.propWake
		f.propParked.Store(false)
		idle = 0
	}
}

// pendingPublication reports whether any writer lane has a buffer awaiting
// propagation — the propagator's recheck after publishing itself parked.
func (f *Framework[T]) pendingPublication() bool {
	for _, w := range f.writers {
		if w.prop.Load() == 0 {
			return true
		}
	}
	return false
}

// Close stops the propagator and drains every remaining buffered item into
// the global sketch. It must be called after all writer goroutines have
// quiesced; afterwards the global sketch summarises the entire ingested
// stream exactly (no relaxation residue). Close is not idempotent.
func (f *Framework[T]) Close() {
	f.stopped.Store(true)
	if f.started.Load() {
		// Wake the propagator if it is parked; it observes stopped and
		// exits. A stray token is harmless (capacity 1, checked on park).
		select {
		case f.propWake <- struct{}{}:
		default:
		}
		<-f.done
	}
	for _, w := range f.writers {
		// If a publication was in flight, merge the published buffer first.
		// Its items were counted as Ingested when published, so only Merged
		// advances here.
		if w.prop.Load() == 0 {
			idx := w.cur
			if f.cfg.Mode == ModeOptimised {
				idx = 1 - w.cur
			}
			if buf := w.buf[idx]; len(buf) > 0 {
				f.global.MergeBuffer(buf)
				f.merged.Add(int64(len(buf)))
				w.buf[idx] = buf[:0]
			}
			w.prop.Store(f.global.CalcHint())
		}
		// Then the partially-filled current buffer, which was never
		// published: it enters and leaves the propagation plane here.
		if buf := w.buf[w.cur]; len(buf) > 0 {
			f.global.MergeBuffer(buf)
			f.ingested.Add(int64(len(buf)))
			f.merged.Add(int64(len(buf)))
			w.buf[w.cur] = buf[:0]
		}
	}
}

// Pressure returns the framework's cumulative ingest-pressure counters.
// Wait-free and safe to call concurrently with updates, propagation, and
// queries — the sampling hook the ops layer polls. After Close the
// sample is exact: Ingested == Merged == the post-filter stream length.
func (f *Framework[T]) Pressure() PressureSample {
	// Merged first: each item's Merged add happens after its Ingested add,
	// so this read order keeps the sampled backlog from going negative.
	m := f.merged.Load()
	return PressureSample{Ingested: f.ingested.Load(), Merged: m}
}

// Lazy reports whether the framework has left the eager phase.
func (f *Framework[T]) Lazy() bool { return f.lazy.Load() }

// Stats aggregates per-writer counters. Call only while writers are
// quiescent (e.g. after Close).
type Stats struct {
	// Accepted is the number of items that passed pre-filtering and were
	// buffered or eagerly applied.
	Accepted int64
	// Filtered is the number of items discarded by ShouldAdd before
	// reaching any buffer — the paper's key throughput lever.
	Filtered int64
}

// Stats returns aggregated writer counters.
func (f *Framework[T]) Stats() Stats {
	var s Stats
	for _, w := range f.writers {
		s.Accepted += w.updates
		s.Filtered += w.filtered
	}
	return s
}
