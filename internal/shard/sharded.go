package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fastsketches/internal/core"
)

// Accumulator is the reusable merge target of a sketch family. Reset must
// restore the empty state while retaining capacity, so one accumulator can
// serve an unbounded sequence of merged queries without allocating.
//
// FoldInto folds the receiver's accumulated state into dst without mutating
// the receiver. It is the drain hook of live resharding: when Resize retires
// an epoch, the retired shards' final snapshots are folded into one legacy
// accumulator, which every subsequent merged query folds (via FoldInto) as
// if it were one more shard snapshot. FoldInto must be allocation-free in
// steady state and safe to call concurrently from many goroutines folding
// into distinct dst accumulators, because the published legacy accumulator
// is immutable and shared by all queriers.
//
// SizeBytes estimates the accumulator's resident heap footprint in bytes —
// the unit the sharded layer multiplies out into a per-sketch resident-size
// estimate for memory-budget accounting. It must be cheap (no walking of
// per-entry state) and safe to call concurrently with reads of an immutable
// published accumulator.
//
// ExportTo appends the accumulated state's snapshot body to dst, and
// ImportFrom folds such a body into the receiver, leaving it unchanged on a
// (typed) error — the codec of the checkpoint plane (see snapshot.go).
type Accumulator[A any] interface {
	Reset()
	FoldInto(dst A)
	SizeBytes() int
	ExportTo(dst []byte) []byte
	ImportFrom(blob []byte) error
}

// Mergeable is the uniform contract a family's concurrent composable
// satisfies toward the generic sharded layer: the core framework's Global
// interface for ingestion, plus a wait-free fold of the published snapshot
// into a caller-owned accumulator for the merge-on-query plane.
type Mergeable[T any, A any] interface {
	core.Global[T]
	// SnapshotMergeInto folds the latest published snapshot into acc. It
	// must be wait-free, safe concurrently with ingestion, and must not
	// retain acc: repeatedly reusing one Reset accumulator must be
	// equivalent to folding into a fresh accumulator per query.
	SnapshotMergeInto(acc A)
}

// epochState is one immutable routing/query epoch of a Sharded sketch. The
// current epoch's comps receive all new updates; during a resize transition
// old points at the epoch being drained (still part of every merged query);
// legacy holds the accumulated state of all epochs retired by earlier
// resizes, folded into every merged query via Accumulator.FoldInto.
//
// An epochState is never mutated after it is published through Sharded.st —
// queries load the pointer once and get a consistent view of exactly which
// state (legacy ∪ old comps ∪ current comps) their fold covers, which is
// what makes resharding transitions atomic from the reader's perspective:
// a query sees a retired epoch either as live shard snapshots or as part of
// the legacy accumulator, never both and never neither.
type epochState[T any, A Accumulator[A], C Mergeable[T, A]] struct {
	comps []C
	g     group[T]
	// old is the epoch being drained by an in-flight Resize; nil otherwise.
	old *epochState[T, A, C]
	// legacy is the immutable accumulated state of all retired epochs;
	// meaningful only when hasLegacy is true (type parameters cannot be
	// compared against nil).
	legacy    A
	hasLegacy bool
	// basePressure is the final pressure sample of every retired epoch,
	// summed — the counterpart of legacy for the pressure counters. Folding
	// it into each Pressure() sample keeps the sketch-level counters
	// monotonic across resizes: a reader sees a retired epoch's counts
	// either live (walking old's frameworks) or in basePressure, never both,
	// because both travel on the same immutable epoch pointer.
	basePressure core.PressureSample
	// win is the published sliding-window query plane; nil unless a window
	// is enabled (see window.go). Like legacy, it is immutable once
	// published and travels on the epoch pointer, so a rotation — which
	// moves the closing interval's state from live shard snapshots into the
	// window's suffix-merge — is atomic from the reader's perspective.
	win *epochWindow[A]
}

// lanePad keeps each lane's seqlock word on its own cache line so writer
// lanes do not false-share while entering/leaving their critical sections.
type lanePad [8]uint64

// laneScratch is one writer lane's reusable routing buckets for batched
// ingest: batch items are partitioned by destination shard here, then each
// non-empty bucket is handed to its shard's framework in one UpdateBatch
// call. Owned by the lane's single driving goroutine; buckets are grown on
// demand (a resize to more shards re-dimensions them once) and retain their
// capacity across batches, so steady-state batched ingest allocates nothing.
type laneScratch[T any] struct {
	_       lanePad
	buckets [][]T
	_       lanePad
}

// laneSeq is the per-writer-lane seqlock coordinating updates with Resize:
// a lane increments seq to an odd value before loading the routing epoch
// and back to even after the update lands, so a resizer that has swapped
// the epoch pointer can wait until every lane has provably left the old
// epoch (seq even, or seq moved on) before draining it.
type laneSeq struct {
	_   lanePad
	seq atomic.Uint64
	_   lanePad
}

// Sharded is the generic sharded sketch underlying all four families: S
// independent concurrent composables striped by key hash (the group layer),
// plus the allocation-free merge-on-query plane — a sync.Pool of reusable
// accumulators, so steady-state merged queries allocate nothing. The family
// wrappers (Theta, HLL, Quantiles, CountMin) embed a *Sharded and add only
// their hash routing and family-specific query signatures.
//
// The shard group is resizable while writers and queriers stay active: see
// Resize for the epoch-swap protocol and its transient staleness bound.
type Sharded[T any, A Accumulator[A], C Mergeable[T, A]] struct {
	// st is the current epoch; swapped atomically by Resize. Writers load it
	// once per update (under their lane seqlock), queriers once per fold.
	st atomic.Pointer[epochState[T, A, C]]

	cfg    Config // normalised; cfg.Shards is the *initial* S
	k      int
	mkComp func(i int) C
	mkAcc  func() A
	// accs is the pooled-accumulator query plane. The pool is owned by the
	// Sharded sketch, not by an epoch, so it carries over across resizes:
	// accumulators are dimensioned by family parameters (k, p, w×d), which
	// Resize never changes, so pooled capacity stays valid for any shard
	// count.
	accs sync.Pool

	lanes   []laneSeq
	scratch []laneScratch[T]
	// free holds the writer lanes no AcquireLane caller currently holds;
	// closing is closed when Close starts, refusing further claims. Close
	// takes back every token before it stops the frameworks, which is how
	// it waits out the lanes still held.
	free      chan int
	closing   chan struct{}
	closeOnce sync.Once

	// view is the published materialized merged view, nil unless EnableView
	// has built one (see view.go). Queries load it once per fold; a non-nil,
	// unexpired view replaces the whole S-shard fold with one accumulator
	// fold.
	view atomic.Pointer[viewBuf[A]]
	// vr is the refresher runtime while a view is enabled; nil otherwise.
	// Mutated only under resizeMu (EnableView/DisableView/Close).
	vr atomic.Pointer[viewRuntime[A]]
	// wr is the rotator runtime while a sliding window is enabled; nil
	// otherwise. Mutated only under resizeMu (EnableWindow/DisableWindow/
	// Close). The ring it rotates lives on the epoch's window plane.
	wr atomic.Pointer[windowRuntime]

	// resizeMu serialises Resize, Close, rotation and view/window
	// enable/disable; none is on a hot path.
	resizeMu sync.Mutex
	closed   bool
}

// newSharded builds and starts one sharded sketch from a family descriptor:
// mkComp constructs the per-shard concurrent composable (shard index i is
// provided so families can decorrelate per-shard randomness) and mkAcc
// constructs an empty accumulator for the pool.
func newSharded[T any, A Accumulator[A], C Mergeable[T, A]](
	cfg *Config, k int, mkComp func(i int) C, mkAcc func() A,
) *Sharded[T, A, C] {
	s := &Sharded[T, A, C]{
		cfg:     *cfg,
		k:       k,
		mkComp:  mkComp,
		mkAcc:   mkAcc,
		lanes:   make([]laneSeq, cfg.Writers),
		scratch: make([]laneScratch[T], cfg.Writers),
		free:    make(chan int, cfg.Writers),
		closing: make(chan struct{}),
	}
	for l := 0; l < cfg.Writers; l++ {
		s.free <- l
	}
	s.accs.New = func() any { return mkAcc() }
	s.st.Store(s.newEpoch(cfg.Shards))
	return s
}

// newEpoch builds and starts a fresh epoch of the given shard count, with no
// transition links. The per-shard frameworks inherit the construction-time
// configuration (writer lanes, buffer size, eager budget); only S varies.
func (s *Sharded[T, A, C]) newEpoch(shards int) *epochState[T, A, C] {
	e := &epochState[T, A, C]{comps: make([]C, shards)}
	globals := make([]core.Global[T], shards)
	for i := range e.comps {
		c := s.mkComp(i)
		e.comps[i] = c
		globals[i] = c
	}
	cfg := s.cfg
	cfg.Shards = shards
	e.g = newGroup[T](&cfg, s.k, globals)
	return e
}

// update ingests item on writer lane lane of the shard selected by routeHash
// in the current epoch. The lane seqlock (odd while the update is in
// flight) is what lets Resize wait until no writer can still be touching a
// swapped-out epoch before draining it.
func (s *Sharded[T, A, C]) update(lane int, routeHash uint64, item T) {
	ls := &s.lanes[lane]
	ls.seq.Add(1) // odd: epoch load + update in flight
	st := s.st.Load()
	st.g.update(lane, routeHash, item)
	ls.seq.Add(1) // even: lane idle
}

// updateBatch ingests a contiguous chunk of items on writer lane lane,
// equivalent to calling update per item but with the per-item coordination
// hoisted to per-chunk: the lane seqlock is entered once and the routing
// epoch loaded once for the whole chunk (two seq-cst atomics per chunk
// instead of two per item), items are partitioned into per-shard buckets in
// the lane's scratch, and each non-empty bucket lands on its shard via one
// core UpdateBatch call. route maps an item to its routing hash (the
// family's recipe). Holding the seqlock odd for the chunk's duration delays
// a concurrent Resize's writer grace period by at most one chunk
// application; the epoch-consistency argument is unchanged.
func (s *Sharded[T, A, C]) updateBatch(lane int, items []T, route func(T) uint64) {
	if len(items) == 0 {
		return
	}
	ls := &s.lanes[lane]
	ls.seq.Add(1) // odd: epoch load + updates in flight
	st := s.st.Load()
	g := &st.g
	if nsh := len(g.fws); nsh == 1 {
		g.fws[0].UpdateBatch(lane, items)
	} else {
		sc := &s.scratch[lane]
		if len(sc.buckets) < nsh {
			grown := make([][]T, nsh)
			copy(grown, sc.buckets)
			sc.buckets = grown
		}
		buckets := sc.buckets[:nsh]
		for _, item := range items {
			i := g.route(route(item))
			buckets[i] = append(buckets[i], item)
		}
		for i, b := range buckets {
			if len(b) > 0 {
				g.fws[i].UpdateBatch(lane, b)
				buckets[i] = b[:0]
			}
		}
	}
	ls.seq.Add(1) // even: lane idle
}

// AcquireLane claims a writer lane for the caller's exclusive use until
// ReleaseLane, blocking while all W lanes are claimed — the way for
// goroutines that do not each own a fixed lane (a server's connection
// handlers, say) to keep the framework's one-goroutine-per-lane discipline.
// ok is false once Close has started, including for a claimer already
// waiting; such a caller must not update the sketch. Close waits for every
// claimed lane to be released before it stops the frameworks, so the
// updates a holder makes between AcquireLane and ReleaseLane all land
// before the final drain.
//
// A sketch's lanes are driven either by pinned callers of Update(lane, …)
// and UpdateBatch(lane, …) or by claimers, never both: a claimer may be
// handed a lane a pinned caller is driving.
func (s *Sharded[T, A, C]) AcquireLane() (lane int, ok bool) {
	select {
	case lane = <-s.free:
	case <-s.closing:
		return 0, false
	}
	select {
	case <-s.closing:
		s.free <- lane // Close is collecting the tokens; hand it over
		return 0, false
	default:
		return lane, true
	}
}

// ReleaseLane returns a lane claimed by AcquireLane.
func (s *Sharded[T, A, C]) ReleaseLane(lane int) { s.free <- lane }

// Closed reports whether Close has started: a closed sketch still answers
// queries, but refuses lane claims and must not be updated.
func (s *Sharded[T, A, C]) Closed() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// awaitWriters returns once every writer lane has provably stopped using
// any epoch loaded before the current one was published: for each lane, if
// its seqlock was odd (update in flight), wait for it to move. Sequential
// consistency of the atomics gives the grace-period argument: a lane whose
// seq is even, or has changed since the epoch swap, can only load the new
// epoch on its next update.
func (s *Sharded[T, A, C]) awaitWriters() {
	for i := range s.lanes {
		seq := &s.lanes[i].seq
		if s0 := seq.Load(); s0&1 == 1 {
			for seq.Load() == s0 {
				runtime.Gosched()
			}
		}
	}
}

// Resize grows or shrinks the shard group to the given count while writers
// and queriers stay active — the live-resharding entry point. It returns
// once the transition is fully drained; concurrent Resize/Close calls are
// serialised.
//
// Protocol (the epoch swap):
//
//  1. Build and start a fresh epoch of `shards` framework instances.
//  2. Publish it atomically as the routing epoch, with the previous epoch
//     attached as `old`: from this instant new updates route to the new
//     shards, while merged queries fold legacy ∪ old ∪ new.
//  3. Wait out writer lanes still mid-update on the old epoch (per-lane
//     seqlock grace period), then Close the old epoch's frameworks, which
//     drains every buffered update exactly into the old composables.
//  4. Fold the previous legacy state and every old shard's final snapshot —
//     through the same group fold (foldGroup) merged queries use — into
//     one fresh accumulator, and publish it as the new epoch's legacy,
//     atomically detaching the old epoch. The old shards are now retired
//     and unreachable from new queries.
//
// Staleness: while the transition is in flight (between steps 2 and 4) a
// merged query folds both epochs' live snapshots and may miss up to
// S_old·r + S_new·r completed updates — the sum of both epochs' combined
// relaxation bounds, which is what Relaxation() reports during the
// transition. Once Resize returns, the bound is the new epoch's S_new·r:
// the legacy accumulator is an exact fold of everything the retired epochs
// ingested. Queries never double-count across the retirement instant,
// because a query reads one epoch pointer: it sees the old shards either
// live or as legacy, never both.
//
// The accumulator pool, writer-lane count, per-shard accuracy parameters
// and seeds are unchanged by a resize; only S — and with it the
// throughput/staleness trade-off S·r — moves.
func (s *Sharded[T, A, C]) Resize(shards int) error {
	if shards < 1 {
		return fmt.Errorf("shard: Resize to %d shards; need ≥ 1", shards)
	}
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: Resize after Close")
	}
	old := s.st.Load()
	if shards == len(old.comps) {
		return nil
	}

	next := &epochState[T, A, C]{
		old: old, legacy: old.legacy, hasLegacy: old.hasLegacy,
		basePressure: old.basePressure, win: old.win,
	}
	built := s.newEpoch(shards)
	next.comps, next.g = built.comps, built.g
	s.st.Store(next) // writers route to the new shards from here on
	s.awaitWriters() // grace period: no lane can still touch the old epoch
	old.g.close()    // drain old buffers exactly into the old composables

	retired := &epochState[T, A, C]{
		comps: next.comps, g: next.g,
		// The old epoch is fully drained (Ingested == Merged), so its final
		// counters move into the base exactly once, on the same atomic store
		// that retires its live frameworks.
		basePressure: old.basePressure.Add(old.g.pressure()),
	}
	if w := old.win; w != nil {
		// A window is enabled: the drained shards' state belongs to the
		// still-open live interval, not to pre-window history, so it moves
		// into the window's carry plane — the next rotation closes it into a
		// ring slot along with the new shards' contributions. Legacy is
		// untouched; windowed queries keep covering exactly the window.
		carry := s.mkAcc()
		if w.hasCarry {
			w.carry.FoldInto(carry)
		}
		foldGroup(carry, old.comps)
		win := *w
		win.carry, win.hasCarry = carry, true
		retired.win = &win
		retired.legacy, retired.hasLegacy = old.legacy, old.hasLegacy
	} else {
		// Fold prior legacy plus every retired shard's final snapshot into
		// one fresh accumulator. It must be a fresh (never pooled, never
		// released) instance: once published it is shared read-only by every
		// query.
		legacy := s.mkAcc()
		if old.hasLegacy {
			old.legacy.FoldInto(legacy)
		}
		foldGroup(legacy, old.comps)
		retired.legacy, retired.hasLegacy = legacy, true
	}
	s.st.Store(retired) // retire the old epoch atomically
	return nil
}

// MergeInto folds the sketch's entire published state into acc without
// resetting it first, so a fold can accumulate across several sketches: the
// legacy accumulator of retired epochs (if any), the draining epoch's shard
// snapshots while a Resize transition is in flight, and every current
// shard's published snapshot. Wait-free: one atomic epoch load, then one
// atomic snapshot load per shard plus the folds; no shard's propagator is
// ever blocked. The combined state reflects all but at most Relaxation()
// of the updates completed before the call.
//
// When a materialized view is enabled (EnableView) and its latest
// publication is within ViewConfig.MaxAge, the fold instead reads the single
// published view accumulator — one fold, O(1) in the shard count — and the
// staleness bound widens to Relaxation() plus the view's refresh lag
// (ViewLag). An expired or disabled view transparently falls back to the
// live per-shard fold above.
func (s *Sharded[T, A, C]) MergeInto(acc A) {
	if v := s.acquireView(); v != nil {
		v.acc.FoldInto(acc)
		v.refs.Add(-1)
		return
	}
	mergeEpoch(s.st.Load(), acc)
}

// mergeEpoch folds one immutable epoch's entire reachable state — legacy ∪
// window planes (closed ring slots' suffix-merge and any resize carry) ∪
// draining old epoch ∪ current shard snapshots — into acc. Shared by the
// live query path and the view refresher (which must always fold live
// state, never its own published view).
func mergeEpoch[T any, A Accumulator[A], C Mergeable[T, A]](st *epochState[T, A, C], acc A) {
	if st.hasLegacy {
		st.legacy.FoldInto(acc)
	}
	if w := st.win; w != nil && w.hasMerged {
		w.merged.FoldInto(acc)
	}
	foldOpen(st, acc)
}

// foldOpen folds the open interval's state — a window's resize carry, then
// the draining epoch's shards, then the current epoch's shards — into acc.
// The two epochs are two groups: routing makes one epoch's shards disjoint,
// but a key may sit in both epochs, so only within a group may an
// accumulator skip deduplication.
func foldOpen[T any, A Accumulator[A], C Mergeable[T, A]](st *epochState[T, A, C], acc A) {
	if w := st.win; w != nil && w.hasCarry {
		w.carry.FoldInto(acc)
	}
	if st.old != nil {
		foldGroup(acc, st.old.comps)
	}
	foldGroup(acc, st.comps)
}

// foldGroup folds the published snapshots of one epoch's shards into acc.
// Routing sends every key to exactly one shard of an epoch, so the group's
// states are disjoint; an accumulator with a disjoint-group fold
// (theta.Union.FoldShards) takes the whole group in one pass, any other
// folds shard by shard.
func foldGroup[T any, A Accumulator[A], C Mergeable[T, A]](acc A, comps []C) {
	if g, ok := any(acc).(interface{ FoldShards([]C) }); ok {
		g.FoldShards(comps)
		return
	}
	for _, c := range comps {
		c.SnapshotMergeInto(acc)
	}
}

// QueryInto resets acc and folds the sketch's entire published state into
// it — the merged-query path for callers that own their accumulator and
// want zero allocation without touching the internal pool. Reusing one
// accumulator across queries is equivalent to a fresh accumulator per
// query, and the Relaxation() staleness bound of MergeInto applies
// unchanged (including across resizes: retired-epoch state arrives through
// the legacy fold, in-transition state through the draining epoch's
// snapshots).
func (s *Sharded[T, A, C]) QueryInto(acc A) {
	acc.Reset()
	s.MergeInto(acc)
}

// NewAccumulator returns a fresh, empty accumulator of this sketch's family
// and dimensions, for callers using QueryInto/MergeInto. The accumulator is
// caller-owned: reuse it across queries (QueryInto resets it) but not from
// multiple goroutines at once. Accumulator dimensions depend only on family
// accuracy parameters, never on the shard count, so an accumulator stays
// valid across any number of Resize calls.
func (s *Sharded[T, A, C]) NewAccumulator() A { return s.mkAcc() }

// acquire returns a Reset accumulator from the pool. Callers must release
// it after extracting scalar results; an accumulator must not be released
// while anything still references its internal state.
func (s *Sharded[T, A, C]) acquire() A {
	acc := s.accs.Get().(A)
	acc.Reset()
	return acc
}

// release returns a pooled accumulator.
func (s *Sharded[T, A, C]) release(acc A) { s.accs.Put(acc) }

// Relaxation returns the combined staleness bound for merged queries: the
// maximum number of completed updates a cross-shard fold may miss. In
// steady state this is S·r = S·2·N·b (Theorem 1 applied per shard and
// summed). While a Resize transition is draining, queries fold both the
// old and the new epoch's live snapshots, and the bound is transiently
// S_old·r + S_new·r; it returns to S_new·r when Resize completes (retired
// state is folded exactly, contributing no staleness).
func (s *Sharded[T, A, C]) Relaxation() int {
	st := s.st.Load()
	r := st.g.relaxation()
	if st.old != nil {
		r += st.old.g.relaxation()
	}
	return r
}

// Shards returns the current S. During a Resize transition this is already
// the new epoch's shard count.
func (s *Sharded[T, A, C]) Shards() int { return len(s.st.Load().comps) }

// Pressure returns the sketch's cumulative ingest-pressure sample, summed
// over every shard of the current epoch, the draining epoch while a Resize
// transition is in flight, and the final counters of all retired epochs —
// so both counters are monotonic across resizes, which is what lets the ops
// sweeper and a metrics scrape turn successive samples into rates.
// Wait-free: one epoch load plus two atomic loads per live shard.
func (s *Sharded[T, A, C]) Pressure() core.PressureSample {
	st := s.st.Load()
	p := st.basePressure
	if st.old != nil {
		p = p.Add(st.old.g.pressure())
	}
	return p.Add(st.g.pressure())
}

// SizeBytes estimates the sketch's resident heap footprint in bytes, for
// memory-budget accounting: one family-dimensioned accumulator's footprint
// per live shard (current epoch plus a draining epoch's shards while a
// Resize is in flight, plus two double-buffered view accumulators when a
// materialized view is enabled), plus the retained legacy accumulator's own
// footprint. It is an estimate, not an exact byte count — per-shard
// composables are approximated by the family's accumulator because both
// hold the same family-parameter-dimensioned state (a Θ slot table, an HLL
// register array, a Count-Min grid, a quantiles summary) — but it tracks
// the real footprint within a small constant factor, scales linearly with S
// (what a budget-driven Resize-down reclaims), and is wait-free toward
// writers: one epoch load plus a pooled-accumulator round trip.
func (s *Sharded[T, A, C]) SizeBytes() int64 {
	st := s.st.Load()
	units := int64(len(st.comps))
	if st.old != nil {
		units += int64(len(st.old.comps))
	}
	if s.vr.Load() != nil {
		units += 2 // double-buffered view accumulators
	}
	if w := st.win; w != nil {
		// Closed ring slots plus the published suffix-merge, carry and decay
		// planes, each one family-dimensioned accumulator.
		units += int64(w.cfg.Slots) + 3
	}
	acc := s.acquire() // pooled: reflects the family's working-set capacity
	unit := int64(acc.SizeBytes())
	s.release(acc)
	total := unit * units
	if st.hasLegacy {
		total += int64(st.legacy.SizeBytes())
	}
	return total
}

// ShardRelaxation returns the single-shard staleness bound: the per-shard
// relaxation r = 2·N·b in steady state, transiently r_old + r_new while a
// Resize transition is draining (single-shard reads touch one owning shard
// per live epoch; legacy state is exact and adds no staleness). It is the
// bound governing per-key queries such as CountMin.Estimate; a transition's
// combined merged-query window is (S_old + S_new) times this r.
func (s *Sharded[T, A, C]) ShardRelaxation() int {
	st := s.st.Load()
	r := st.g.shardRelaxation()
	if st.old != nil {
		r += st.old.g.shardRelaxation()
	}
	return r
}

// Eager reports whether merged queries currently reflect every completed
// update: every current shard is still in its exact eager phase, and, if a
// Resize transition is draining, every old-epoch shard stayed eager too
// (retired legacy state is always exact and does not affect eagerness).
// Note that a Resize starts the new shards in a fresh eager phase.
func (s *Sharded[T, A, C]) Eager() bool {
	st := s.st.Load()
	if !st.g.eager() {
		return false
	}
	return st.old == nil || st.old.g.eager()
}

// Close stops all shard propagators and drains every buffer; afterwards
// merged queries summarise the entire ingested stream with no relaxation
// residue. A materialized view and a sliding-window rotator, if enabled,
// are stopped first (Close never leaks their goroutines), so post-Close
// queries fold the drained shards live and are exact. Call after every
// pinned writer goroutine stops; lanes claimed through AcquireLane are
// waited for instead. Close is serialised with Resize and idempotent.
func (s *Sharded[T, A, C]) Close() {
	s.closeOnce.Do(func() {
		close(s.closing)
		for range cap(s.free) {
			<-s.free
		}
	})
	s.resizeMu.Lock()
	if s.closed {
		s.resizeMu.Unlock()
		return
	}
	s.closed = true
	vr := s.vr.Load()
	if vr != nil {
		s.vr.Store(nil)
	}
	wr := s.wr.Load()
	if wr != nil {
		s.wr.Store(nil)
	}
	s.st.Load().g.close()
	// The runtimes are detached; stop them outside resizeMu — the rotator
	// loop acquires resizeMu per tick (RotateNow), so waiting for it while
	// holding the lock would deadlock. A tick that slips in between sees
	// wr == nil (or closed) and is a no-op.
	s.resizeMu.Unlock()
	if vr != nil {
		s.stopView(vr)
	}
	if wr != nil {
		s.stopWindow(wr)
	}
}
