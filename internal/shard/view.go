package shard

import (
	"fmt"
	"time"

	"fastsketches/internal/clock"
)

// ViewConfig configures a materialized merged view: a periodic refresh
// folds the sketch's entire published state (legacy ∪ window planes ∪
// draining epoch ∪ current shards) into a fresh accumulator and publishes
// it atomically, so merged queries become a single accumulator fold — O(1)
// in the shard count — at the price of bounded extra staleness.
type ViewConfig struct {
	// RefreshEvery is the refresher's tick interval. Defaults to 50ms.
	// A query served from the view reflects all but at most
	// S·r + (updates completed since the view's fold began) of the stream,
	// so the end-to-end staleness bound is S·r plus one refresh interval
	// (plus the fold's own duration and any wait for resizeMu).
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

// viewPlane is one published materialized view. Like legacy and the window
// planes it is immutable once stored in Sharded.view: a refresh publishes a
// fresh plane, and the garbage collector reclaims the previous one once the
// last querier folding it returns.
type viewPlane[A any] struct {
	acc     A
	builtAt int64 // UnixNano on cfg.Clock
	cfg     ViewConfig
}

// fresh reports whether the plane is within cfg.MaxAge, so queries may
// serve it instead of the live fold.
func (v *viewPlane[A]) fresh() bool {
	return v.cfg.MaxAge < 0 || v.cfg.Clock.Now().UnixNano()-v.builtAt <= int64(v.cfg.MaxAge)
}

// EnableView materializes this sketch's merged state: it publishes one view
// synchronously (so a view is available immediately) and schedules a
// refresh every cfg.RefreshEvery on cfg.Clock. While a fresh view is
// published, MergeInto/QueryInto — and every family query built on them —
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
	if s.refresher != nil {
		return fmt.Errorf("shard: view already enabled")
	}
	s.publishView(cfg)
	s.schedule(&s.refresher, cfg.Clock, cfg.RefreshEvery, func() { s.refreshViewLocked() })
	return nil
}

// DisableView stops the refresher and unpublishes the view; subsequent
// merged queries fold live shard snapshots again (bound back to S·r).
// Returns false if no view was enabled. Idempotent and safe concurrently
// with queries: a querier mid-fold on the last published plane finishes
// unharmed, since planes are never mutated.
func (s *Sharded[T, A, C]) DisableView() bool {
	s.resizeMu.Lock()
	stop := s.unschedule(&s.refresher)
	s.view.Store(nil)
	s.resizeMu.Unlock()
	if stop == nil {
		return false
	}
	stop()
	return true
}

// ViewEnabled reports whether a materialized view is currently enabled.
func (s *Sharded[T, A, C]) ViewEnabled() bool { return s.view.Load() != nil }

// ViewLag returns the age of the latest published view on the view's own
// clock — the refresh component of the query-staleness bound. 0 when no
// view is enabled (queries fold live snapshots; no refresh lag exists).
func (s *Sharded[T, A, C]) ViewLag() time.Duration {
	v := s.view.Load()
	if v == nil {
		return 0
	}
	return v.cfg.Clock.Now().Sub(time.Unix(0, v.builtAt))
}

// RefreshViewNow performs one synchronous refresh-and-publish, independent
// of the periodic tick — the deterministic pacing hook for tests and stress
// drivers. Returns false if no view is enabled.
func (s *Sharded[T, A, C]) RefreshViewNow() bool {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	return s.refreshViewLocked()
}

// refreshViewLocked republishes the enabled view from the current state, or
// returns false when none is enabled. Call with resizeMu held.
func (s *Sharded[T, A, C]) refreshViewLocked() bool {
	v := s.view.Load()
	if v == nil {
		return false
	}
	s.publishView(v.cfg)
	return true
}

// publishView folds the current epoch into a fresh accumulator and stores
// it as the view. Call with resizeMu held: every epoch store runs under it,
// so the fold sees exactly one epoch — never one retired mid-fold.
func (s *Sharded[T, A, C]) publishView(cfg ViewConfig) {
	acc := s.mkAcc()
	mergeEpoch(s.st.Load(), acc)
	s.view.Store(&viewPlane[A]{acc: acc, builtAt: cfg.Clock.Now().UnixNano(), cfg: cfg})
}
