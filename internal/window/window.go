// Package window is the generic sliding-window layer under the sharded
// sketches: a clock-rotated ring of closed per-interval sub-sketch
// accumulators plus the configuration and pacing primitives the shard layer
// builds its rotator on. The package is deliberately free of any sketch or
// shard dependency — it speaks only the minimal accumulator surface (Reset +
// FoldInto) — so the ring protocol can be reasoned about, and tested, in
// isolation.
//
// # Window model
//
// A windowed sketch covers the live interval plus the last Slots closed
// intervals. Every Interval the rotator closes the live interval into a ring
// slot; when the ring is full the oldest slot is expelled (the shard layer
// folds it into its cumulative legacy plane, so cumulative queries never
// lose it). A windowed query is the fold of the live state with every closed
// slot — or, as the shard layer materializes it, with a single suffix-merge
// accumulator refreshed on rotation, making the windowed fold O(1) in the
// slot count.
//
// # Decay
//
// Decay ∈ (0,1) additionally maintains an exponentially time-decayed plane:
// on every rotation the decayed accumulator is scaled by Decay and the
// freshly closed slot folded in, so a count observed k rotations ago
// contributes with weight Decay^k. Scaling requires linearly scalable
// counters — the Scalable hook — which of the four families only Count-Min
// provides; declaring Decay on a family without it is a configuration error.
package window

import (
	"errors"
	"fmt"
	"time"

	"fastsketches/internal/clock"
)

// Window shape defaults and bounds.
const (
	// DefaultInterval is the rotation interval when Config.Interval is zero.
	DefaultInterval = time.Minute
	// DefaultSlots is the closed-slot count when Config.Slots is zero.
	DefaultSlots = 6
	// MaxSlots bounds the ring length: far above any sane window, low enough
	// that a corrupt checkpoint or a malicious wire frame cannot make a
	// process build millions of per-interval accumulators.
	MaxSlots = 1 << 16
)

// The window configuration errors.
var (
	ErrBadSlots = errors.New("window: slot count outside [1, MaxSlots]")
	ErrBadDecay = errors.New("window: decay outside [0, 1)")
)

// Config declares one sliding window: rotate every Interval, retain the last
// Slots closed intervals (the covered span is the live interval plus
// Slots·Interval), and optionally maintain an exponential decay plane.
type Config struct {
	// Interval is the rotation period. Defaults to DefaultInterval.
	Interval time.Duration
	// Slots is the number of closed intervals retained in the ring.
	// Defaults to DefaultSlots; must be in [1, MaxSlots].
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
func (c Config) Normalise() (Config, error) {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Slots == 0 {
		c.Slots = DefaultSlots
	}
	if c.Slots < 1 || c.Slots > MaxSlots {
		return c, fmt.Errorf("%w: %d", ErrBadSlots, c.Slots)
	}
	if c.Decay < 0 || c.Decay >= 1 {
		return c, fmt.Errorf("%w: %v", ErrBadDecay, c.Decay)
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
func (c Config) Same(o Config) bool {
	return c.Interval == o.Interval && c.Slots == o.Slots && c.Decay == o.Decay
}

// Acc is the minimal accumulator surface the ring needs: Reset (recycling an
// expelled slot as the next one) and FoldInto (suffix-merging the ring into
// one accumulator). Every shard-layer accumulator satisfies it.
type Acc[A any] interface {
	Reset()
	FoldInto(dst A)
}

// Scalable is the optional hook the decay plane requires: scale every
// counter by f ∈ (0,1), flooring. Of the four sketch families only
// Count-Min counts are linearly scalable; Θ/HLL/quantiles accumulators do
// not implement it and cannot be decayed.
type Scalable interface {
	ScaleBy(f float64)
}

// Ring is a fixed-capacity FIFO of closed-interval accumulators, oldest
// first. It is plain mutable state: the shard layer mutates it only under
// its resize mutex (rotation, checkpoint export, restore), while queries
// read the immutable suffix-merge published on the epoch pointer and never
// touch the ring itself.
type Ring[A Acc[A]] struct {
	slots []A // oldest → newest
	cap   int
}

// NewRing returns an empty ring retaining at most capacity closed slots.
func NewRing[A Acc[A]](capacity int) *Ring[A] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[A]{slots: make([]A, 0, capacity), cap: capacity}
}

// Len returns the number of closed slots currently retained.
func (r *Ring[A]) Len() int { return len(r.slots) }

// Cap returns the ring's slot capacity.
func (r *Ring[A]) Cap() int { return r.cap }

// PopIfFull removes and returns the oldest slot when the ring is at
// capacity, making room for the next Push — the expel step of a rotation.
// The caller folds the expelled slot into its cumulative plane and may Reset
// and recycle it as the next slot's accumulator.
func (r *Ring[A]) PopIfFull() (oldest A, ok bool) {
	if len(r.slots) < r.cap {
		var zero A
		return zero, false
	}
	oldest = r.slots[0]
	copy(r.slots, r.slots[1:])
	r.slots = r.slots[:len(r.slots)-1]
	return oldest, true
}

// Push appends the newest closed slot. The caller must have made room via
// PopIfFull; pushing into a full ring panics (a rotation protocol bug, not
// an input condition).
func (r *Ring[A]) Push(slot A) {
	if len(r.slots) >= r.cap {
		panic("window: Push into a full ring")
	}
	r.slots = append(r.slots, slot)
}

// FoldAll folds every retained slot into acc — the suffix-merge refresh.
func (r *Ring[A]) FoldAll(acc A) {
	for _, s := range r.slots {
		s.FoldInto(acc)
	}
}

// Slots returns the retained slots, oldest first — the serialization view
// for slot-by-slot checkpointing. The returned slice aliases ring state and
// must not be retained across a mutation.
func (r *Ring[A]) Slots() []A { return r.slots }
