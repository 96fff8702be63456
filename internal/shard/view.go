package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/clock"
)

// ViewConfig configures a materialized merged view: a background refresher
// periodically folds the sketch's entire published state (legacy ∪ draining
// epoch ∪ current shards) into one of two dedicated accumulators and
// publishes it atomically, so merged queries become a single accumulator
// fold — O(1) in the shard count — at the price of bounded extra staleness.
type ViewConfig struct {
	// RefreshEvery is the refresher's tick interval. Defaults to 50ms.
	// A query served from the view reflects all but at most
	// S·r + (updates completed since the view's fold began) of the stream,
	// so the end-to-end staleness bound is S·r plus one refresh interval
	// (plus the fold's own duration).
	RefreshEvery time.Duration
	// MaxAge bounds how stale a published view may be before queries fall
	// back to the live S-shard fold (for example because the refresher is
	// starved or the process is suspended). 0 defaults to 4×RefreshEvery;
	// negative means views never expire (queries always use the latest
	// published view, however old — useful for deterministic tests that
	// pace refreshes manually).
	MaxAge time.Duration
	// Clock drives refresh pacing and view timestamps. Defaults to the
	// system clock.
	Clock clock.Clock
}

func (c *ViewConfig) normalise() {
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 50 * time.Millisecond
	}
	if c.MaxAge == 0 {
		c.MaxAge = 4 * c.RefreshEvery
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
}

// viewBuf is one of the two merged-view accumulators the refresher
// ping-pongs between. While published (reachable through Sharded.view) its
// acc is immutable and shared read-only by every querier, exactly like a
// legacy accumulator; refs counts queriers mid-fold so the refresher can
// wait out stragglers before reusing a swapped-out buffer.
type viewBuf[A any] struct {
	acc  A
	refs atomic.Int64
	// expiresAt is the publication's expiry instant in UnixNanos (0 = never).
	// Written only while the buffer is unpublished with refs == 0, read only
	// by queriers holding a ref on the published buffer, so a plain field is
	// race-free: both transitions synchronise through the view pointer and
	// the refs counter.
	expiresAt int64
	clock     clock.Clock
}

// viewRuntime is the per-sketch refresher state while a view is enabled.
type viewRuntime[A any] struct {
	// mu serialises refreshes (the background loop and RefreshViewNow) and
	// orders them against teardown: once stopped is set under mu, no further
	// refresh can publish.
	mu      sync.Mutex
	stopped bool

	cfg  ViewConfig
	bufs [2]*viewBuf[A]
	next int // index of the buffer the next refresh fills

	stop chan struct{}
	done chan struct{}

	// builtAt is the UnixNano timestamp of the latest published view, for
	// ViewLag. 0 until the first publish.
	builtAt atomic.Int64
}

// EnableView materializes this sketch's merged state: it performs one
// synchronous refresh (so a view is available immediately) and starts a
// background refresher that re-folds all shard snapshots every
// cfg.RefreshEvery and publishes the result atomically. While a fresh view
// is published, MergeInto/QueryInto — and every family query built on them —
// fold the single view accumulator instead of S shard snapshots: query cost
// becomes constant in S, and the staleness bound grows from S·r to
// S·r + one refresh interval (see ViewConfig).
//
// The refresher is stopped by DisableView or Close. Enabling a view on a
// sketch that already has one is an error; enabling after Close is an error.
func (s *Sharded[T, A, C]) EnableView(cfg ViewConfig) error {
	cfg.normalise()
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed {
		return fmt.Errorf("shard: EnableView after Close")
	}
	if s.vr.Load() != nil {
		return fmt.Errorf("shard: view already enabled")
	}
	vr := &viewRuntime[A]{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range vr.bufs {
		vr.bufs[i] = &viewBuf[A]{acc: s.mkAcc(), clock: cfg.Clock}
	}
	s.vr.Store(vr)
	s.refreshView(vr) // publish an initial view before returning
	go func() {
		defer close(vr.done)
		for {
			select {
			case <-vr.stop:
				return
			case <-cfg.Clock.After(cfg.RefreshEvery):
				s.refreshView(vr)
			}
		}
	}()
	return nil
}

// DisableView stops the refresher and unpublishes the view; subsequent
// merged queries fold live shard snapshots again (bound back to S·r).
// Returns false if no view was enabled. Idempotent and safe concurrently
// with queries: a querier mid-fold on the final published view finishes
// unharmed (the buffers are retired, never mutated again).
func (s *Sharded[T, A, C]) DisableView() bool {
	s.resizeMu.Lock()
	vr := s.vr.Load()
	if vr == nil {
		s.resizeMu.Unlock()
		return false
	}
	s.vr.Store(nil)
	s.resizeMu.Unlock()
	s.stopView(vr)
	return true
}

// stopView tears down a detached viewRuntime: stops the background loop,
// forbids further publishes, and unpublishes the view pointer.
func (s *Sharded[T, A, C]) stopView(vr *viewRuntime[A]) {
	vr.mu.Lock()
	vr.stopped = true
	vr.mu.Unlock()
	close(vr.stop)
	<-vr.done
	s.view.Store(nil)
}

// ViewEnabled reports whether a materialized view is currently enabled.
func (s *Sharded[T, A, C]) ViewEnabled() bool { return s.vr.Load() != nil }

// ViewLag returns the age of the latest published view on the view's own
// clock — the refresh component of the query-staleness bound. 0 when no
// view is enabled (queries fold live snapshots; no refresh lag exists).
func (s *Sharded[T, A, C]) ViewLag() time.Duration {
	vr := s.vr.Load()
	if vr == nil {
		return 0
	}
	built := vr.builtAt.Load()
	if built == 0 {
		return 0
	}
	return vr.cfg.Clock.Now().Sub(time.Unix(0, built))
}

// RefreshViewNow performs one synchronous refresh-and-publish, independent
// of the background tick — the deterministic pacing hook for tests and
// stress drivers. Returns false if no view is enabled (or it is being
// disabled concurrently).
func (s *Sharded[T, A, C]) RefreshViewNow() bool {
	vr := s.vr.Load()
	if vr == nil {
		return false
	}
	return s.refreshView(vr)
}

// refreshView builds one fresh merged view in the spare buffer and publishes
// it, retiring the previously published buffer for the next cycle.
//
// Double-buffer protocol: the refresher only ever writes the buffer that is
// NOT published. Before refilling it, it waits until no querier still holds
// a ref from the buffer's previous publication (queriers acquire with a
// ref-then-revalidate handshake against the view pointer, so once the
// pointer has moved on, the refresher observing refs == 0 means no reader
// is — or can later be — mid-fold on that buffer). The publish itself is a
// single atomic pointer store; queriers switch between consecutive views
// atomically and never observe a partially folded accumulator.
//
// Resize interaction: the fold goes through the same epoch pointer queries
// use, so it covers legacy ∪ draining old epoch ∪ current shards. If a
// Resize swaps the epoch mid-fold, the fold is rebuilt from the fresh epoch
// pointer before publishing — a view is never published from an epoch that
// was retired during its own construction, so a published view never misses
// the legacy fold of a drained epoch. Convergence: Resize serialises on
// resizeMu and drains whole shard groups, so consecutive epoch swaps are
// orders of magnitude slower than one fold; the rebuild loop terminates.
func (s *Sharded[T, A, C]) refreshView(vr *viewRuntime[A]) bool {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	if vr.stopped {
		return false
	}
	buf := vr.bufs[vr.next]
	for buf.refs.Load() != 0 {
		runtime.Gosched()
	}
	for {
		buf.acc.Reset()
		st := s.st.Load()
		mergeEpoch(st, buf.acc)
		if s.st.Load() == st {
			break
		}
	}
	now := vr.cfg.Clock.Now()
	if vr.cfg.MaxAge > 0 {
		buf.expiresAt = now.Add(vr.cfg.MaxAge).UnixNano()
	} else {
		buf.expiresAt = 0
	}
	vr.builtAt.Store(now.UnixNano())
	s.view.Store(buf)
	vr.next ^= 1
	return true
}

// acquireView returns the published view buffer with a reader ref held, or
// nil when there is no fresh view and the caller must fold live snapshots.
// The ref-then-revalidate handshake pairs with refreshView's wait: a reader
// that incremented refs re-checks that the buffer is still the published
// one; if the pointer moved (the buffer is being — or is about to be —
// refilled) it backs off without touching the accumulator.
func (s *Sharded[T, A, C]) acquireView() *viewBuf[A] {
	for range 2 {
		v := s.view.Load()
		if v == nil {
			return nil
		}
		v.refs.Add(1)
		if s.view.Load() == v {
			if v.expiresAt == 0 || v.clock.Now().UnixNano() <= v.expiresAt {
				return v
			}
			// Stale beyond MaxAge: fall back to the live fold.
			v.refs.Add(-1)
			return nil
		}
		v.refs.Add(-1)
	}
	return nil
}
