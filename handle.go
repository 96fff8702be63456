package fastsketches

import (
	"time"

	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// Spec declares a sketch's configuration in one place — shard count,
// window, view and lifecycle — and is the one form it takes in the
// library, on the wire and in a checkpoint; see wire.Spec for every field. Open* and Handle.Apply apply it (creating the sketch on first
// use with Open*), Registry.Apply applies it to sketches that already exist,
// and SketchInfo.Spec reports the Spec in force. The zero Spec declares
// nothing.
type Spec = wire.Spec

// Sketch is the uniform surface the generic Handle requires of a family's
// sharded sketch: the lane-disciplined ingest plane, the zero-alloc merged
// and windowed query planes, live resizing, and introspection. All four
// family wrappers of the shard package satisfy it through the embedded
// generic Sharded layer; family-specific queries
// (Theta.Estimate, Quantiles.Quantile, CountMin.Estimate, UpdateString)
// stay on the concrete type, reachable via Handle.Sketch.
type Sketch[T any, A any] interface {
	Update(lane int, item T)
	// UpdateBatch may overwrite items: Θ and HLL replace each key with its
	// hash while routing.
	UpdateBatch(lane int, items []T)
	AcquireLane() (lane int, ok bool)
	ReleaseLane(lane int)
	QueryInto(acc A)
	MergeInto(acc A)
	NewAccumulator() A
	Resize(shards int) error
	Shards() int
	Relaxation() int
	ShardRelaxation() int
	Eager() bool
	Pressure() PressureSample
	SizeBytes() int64
	ViewEnabled() bool
	ViewLag() time.Duration
	RefreshViewNow() bool
	WindowEnabled() bool
	WindowSettings() (WindowConfig, bool)
	WindowStats() (WindowInfo, bool)
	WindowQueryInto(acc A) bool
	WindowMergeInto(acc A) bool
	RotateNow() bool
}

// Handle is a typed, family-generic handle on one registered sketch: T is
// the item type, A the reusable merge accumulator, S the concrete sharded
// sketch (so family-specific queries stay statically dispatched — no
// interface boxing on the ingest or query hot paths). Obtain one from
// OpenTheta / OpenHLL / OpenQuantiles / OpenCountMin; the per-family
// aliases (ThetaHandle, …) spell the instantiations.
//
// A handle is a cheap value tied to the sketch it was opened on. After
// Drop (from any handle, or Registry.Drop) the sketch's propagators are
// stopped: queries through a retained handle still summarise the final
// drained state, a lane claim on its sketch (AcquireLane) reports ok=false,
// and an update on a pinned lane would block forever — the same contract
// as a retained *shard.Theta. Reopening the name yields a fresh sketch and
// fresh handles.
type Handle[T any, A any, S Sketch[T, A]] struct {
	r  *Registry
	e  *entry
	sk S
}

// Per-family Handle instantiations — what the Open* constructors return.
type (
	// ThetaHandle is the distinct-count (Θ) sketch handle.
	ThetaHandle = Handle[uint64, *theta.Union, *shard.Theta]
	// HLLHandle is the HyperLogLog distinct-count sketch handle.
	HLLHandle = Handle[uint64, *hll.Sketch, *shard.HLL]
	// QuantilesHandle is the quantiles sketch handle.
	QuantilesHandle = Handle[float64, *quantiles.Accumulator, *shard.Quantiles]
	// CountMinHandle is the Count-Min frequency sketch handle.
	CountMinHandle = Handle[uint64, *countmin.Sketch, *shard.CountMin]
)

// OpenTheta returns a typed handle on the named Θ distinct-count sketch,
// creating the sketch on first use and applying spec (see Spec; the zero
// Spec declares nothing). Open is idempotent: reopening a live name returns
// a handle on the same sketch, re-applying only what the spec declares.
func (r *Registry) OpenTheta(name string, spec Spec) (*ThetaHandle, error) {
	return open[uint64, *theta.Union, *shard.Theta](r, wire.FamilyTheta, name, spec)
}

// OpenHLL is OpenTheta for the named HLL sketch.
func (r *Registry) OpenHLL(name string, spec Spec) (*HLLHandle, error) {
	return open[uint64, *hll.Sketch, *shard.HLL](r, wire.FamilyHLL, name, spec)
}

// OpenQuantiles is OpenTheta for the named quantiles sketch.
func (r *Registry) OpenQuantiles(name string, spec Spec) (*QuantilesHandle, error) {
	return open[float64, *quantiles.Accumulator, *shard.Quantiles](r, wire.FamilyQuantiles, name, spec)
}

// OpenCountMin is OpenTheta for the named Count-Min sketch.
func (r *Registry) OpenCountMin(name string, spec Spec) (*CountMinHandle, error) {
	return open[uint64, *countmin.Sketch, *shard.CountMin](r, wire.FamilyCountMin, name, spec)
}

// open is the one body behind the Open* constructors: validate the spec,
// get-or-create the entry from the family table, apply the spec, and wrap
// the sketch back in its concrete type S — the only place the entry's
// interface is narrowed, so everything a Handle forwards stays statically
// dispatched. A rejected spec creates nothing.
func open[T any, A any, S interface {
	Sketch[T, A]
	sketch
}](r *Registry, fam wire.Family, name string, spec Spec) (*Handle[T, A, S], error) {
	if err := spec.Validate(fam); err != nil {
		return nil, err
	}
	e := r.getOrCreate(fam, name)
	if err := r.apply(e, spec, nil); err != nil {
		return nil, err
	}
	return &Handle[T, A, S]{r: r, e: e, sk: e.sk.(S)}, nil
}

// Family returns the handle's family string ("theta", "hll", "quantiles",
// "countmin") — the discriminator Registry.Info/Drop and the wire protocol
// use.
func (h *Handle[T, A, S]) Family() string { return h.e.key.fam.String() }

// Name returns the sketch's registered name.
func (h *Handle[T, A, S]) Name() string { return h.e.key.name }

// Sketch returns the concrete sharded sketch for family-specific calls —
// Theta/HLL Estimate, Quantiles Quantile/Rank/N, CountMin per-key Estimate,
// the UpdateString variants — all statically dispatched.
func (h *Handle[T, A, S]) Sketch() S { return h.sk }

// Update processes one item on writer lane lane. Lane l must be driven by
// at most one goroutine at a time — the core framework's lane discipline.
func (h *Handle[T, A, S]) Update(lane int, item T) { h.sk.Update(lane, item) }

// UpdateBatch processes a batch of items on writer lane lane, partitioned
// to the owning shards in one pass; steady-state it allocates nothing. Θ and
// HLL consume items as scratch, overwriting each key with its hash while
// routing: a caller that needs the keys afterwards, or feeds one block to
// several sketches, passes each call its own copy.
func (h *Handle[T, A, S]) UpdateBatch(lane int, items []T) { h.sk.UpdateBatch(lane, items) }

// QueryInto resets the caller-owned accumulator and folds every shard
// snapshot into it — the zero-allocation merged query plane. The result
// reflects all but at most Relaxation() of the updates that completed
// before the call.
func (h *Handle[T, A, S]) QueryInto(acc A) { h.sk.QueryInto(acc) }

// MergeInto folds every shard snapshot into acc without resetting it —
// cross-sketch aggregation over a shared accumulator.
func (h *Handle[T, A, S]) MergeInto(acc A) { h.sk.MergeInto(acc) }

// NewAccumulator builds a fresh family-dimensioned merge accumulator for
// QueryInto/MergeInto. Reuse one per reader goroutine to stay
// allocation-free.
func (h *Handle[T, A, S]) NewAccumulator() A { return h.sk.NewAccumulator() }

// Resize live-reshards the sketch to the given S; writers and queriers
// stay active throughout (transitional staleness bound S_old·r + S_new·r).
func (h *Handle[T, A, S]) Resize(shards int) error { return h.sk.Resize(shards) }

// Shards returns the current shard count S.
func (h *Handle[T, A, S]) Shards() int { return h.sk.Shards() }

// Relaxation returns the merged-query staleness bound S·r (transiently
// S_old·r + S_new·r while a resize drains).
func (h *Handle[T, A, S]) Relaxation() int { return h.sk.Relaxation() }

// ShardRelaxation returns the single-shard bound r = 2·N·b governing
// per-key queries.
func (h *Handle[T, A, S]) ShardRelaxation() int { return h.sk.ShardRelaxation() }

// Eager reports whether merged queries currently reflect every completed
// update (every shard still in its exact eager phase).
func (h *Handle[T, A, S]) Eager() bool { return h.sk.Eager() }

// Pressure returns the sketch's cumulative ingest-pressure counters,
// wait-free and monotonic across resizes.
func (h *Handle[T, A, S]) Pressure() PressureSample { return h.sk.Pressure() }

// SizeBytes estimates the sketch's resident heap footprint — the figure
// the memory-budget accountant sums (see shard.Sharded.SizeBytes).
func (h *Handle[T, A, S]) SizeBytes() int64 { return h.sk.SizeBytes() }

// Apply applies spec to this sketch exactly as reopening it with Open*
// would (see Spec), without the name lookup.
func (h *Handle[T, A, S]) Apply(spec Spec) error {
	if err := spec.Validate(h.e.key.fam); err != nil {
		return err
	}
	return h.r.apply(h.e, spec, nil)
}

// ViewEnabled reports whether a materialized view is serving merged
// queries.
func (h *Handle[T, A, S]) ViewEnabled() bool { return h.sk.ViewEnabled() }

// ViewLag returns the age of the view's latest published refresh; zero
// when no view is enabled.
func (h *Handle[T, A, S]) ViewLag() time.Duration { return h.sk.ViewLag() }

// WindowEnabled reports whether a sliding window is declared on this sketch.
func (h *Handle[T, A, S]) WindowEnabled() bool { return h.sk.WindowEnabled() }

// WindowStats returns a wait-free sample of the window plane — shape,
// rotation count, live-interval age and rotation lag — and whether a window
// is enabled.
func (h *Handle[T, A, S]) WindowStats() (WindowInfo, bool) { return h.sk.WindowStats() }

// WindowQueryInto resets the caller-owned accumulator and folds the windowed
// state — the closed-slot suffix-merge plus the live shard snapshots — into
// it: the zero-allocation windowed query plane, O(1) in the closed-slot
// count. Returns false (leaving acc reset) when no window is enabled.
func (h *Handle[T, A, S]) WindowQueryInto(acc A) bool { return h.sk.WindowQueryInto(acc) }

// WindowMergeInto folds the windowed state into acc without resetting it —
// cross-sketch windowed aggregation. Returns false (acc untouched) when no
// window is enabled.
func (h *Handle[T, A, S]) WindowMergeInto(acc A) bool { return h.sk.WindowMergeInto(acc) }

// RotateNow forces one window rotation immediately, independent of the
// rotation clock — deterministic interval boundaries for tests and batch
// pipelines. Returns false when no window is enabled.
func (h *Handle[T, A, S]) RotateNow() bool { return h.sk.RotateNow() }

// Info returns the sketch's live metadata (the Spec in force, staleness
// bounds, pressure counters, resident size), or ok=false after Drop.
func (h *Handle[T, A, S]) Info() (SketchInfo, bool) {
	return h.r.Info(h.Family(), h.Name())
}

// Drop closes and removes the sketch from the registry, reporting whether
// it still existed — see Registry.Drop for the retained-handle contract.
func (h *Handle[T, A, S]) Drop() bool {
	return h.r.Drop(h.Family(), h.Name())
}
