// Package shard stripes a keyed update stream across S independent
// concurrent sketches and answers queries by merging per-shard snapshots on
// demand — the scale-out layer that turns the paper's single concurrent
// sketch into a multi-sketch service.
//
// # Why shard
//
// The framework's relaxation grows linearly with the writer count: a single
// OptParSketch ingested by N writers answers queries that may miss up to
// r = 2·N·b completed updates. A service ingesting one heavy keyed stream
// with many writer goroutines therefore pays ever-larger staleness as it
// scales. Sharding splits the key space across S sketches, each with its own
// propagator and its own writer lanes, so per-shard contention — and the
// constant factors behind b — stay small while total ingest throughput
// scales with S independent propagators.
//
// # Combined relaxation bound: S·r
//
// Each shard is itself an instance of the paper's framework, strongly
// linearisable w.r.t. the r-relaxed sequential specification with
// r = 2·N·b (OptParSketch; N·b for ParSketch). A cross-shard merged query
// folds one wait-free snapshot per shard; relative to any point before the
// fold began, shard i's snapshot misses at most r of shard i's completed
// updates, so the merged answer misses at most
//
//	S·r = S·2·N·b
//
// of all completed updates. Queries scoped to a single key (Count-Min
// frequency, for instance) touch only the owning shard and keep the tighter
// single-shard bound r. Choosing S is therefore a throughput/staleness
// trade: more shards mean more parallel propagators (throughput ↑) but a
// larger worst-case combined staleness window (S·r ↑) for global queries.
//
// # Routing
//
// Updates are routed by a mix of the element's 64-bit hash with a routing
// seed, decorrelating shard choice from the bits the sketches themselves
// consume (Θ compares the raw hash against its threshold, HLL consumes
// prefix/suffix bits), so every shard still observes uniformly distributed
// hashes. Identical keys always land on the same shard, which is what makes
// per-key queries single-shard and keeps distinct counts additive across
// shards.
//
// # Lanes
//
// A sharded sketch with W writer lanes creates W lanes on every shard; lane
// l of every shard is owned by caller goroutine l (an update's shard is not
// known before hashing, so each goroutine must be able to reach all shards).
// As in the core framework, each lane must be driven by at most one
// goroutine at a time.
//
// # Live resharding and the one epoch swap
//
// S is not frozen at construction: Resize grows or shrinks the shard count
// while writers and queriers stay active. Routing goes through an
// atomically-swapped immutable epoch — the current shards and their
// frameworks, optionally the old epoch still draining, a legacy accumulator
// holding all state retired by earlier resizes, and an optional window
// plane. One swap routine (Sharded.swap) changes epochs for both Resize and
// window rotation: it builds and publishes the new epoch with the old one
// attached, waits out in-flight writers behind per-lane seqlocks, and
// closes the old epoch's frameworks (an exact drain). The caller then folds
// the old shards' final snapshots where they belong — legacy for a resize,
// a window's carry for a resize under a window, a ring slot for a rotation
// — and retires the old epoch in one atomic store. Because every query
// reads one epoch pointer, it sees a retired epoch either live or folded,
// never both and never neither, so no completed update is lost or
// double-counted across a swap. The merged-query staleness bound is
// transiently S_old·r + S_new·r while a drain is in flight and returns to
// the new S·r when the swap completes; Relaxation() always reports the
// current value. See Sharded.Resize and docs/ARCHITECTURE.md for the full
// protocol.
package shard

import (
	"fmt"

	"fastsketches/internal/core"
	"fastsketches/internal/murmur"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 4

// Config parameterises a sharded sketch. The zero value gives
// DefaultShards shards, one writer lane, and the paper's e = 0.04 eager
// budget per shard.
type Config struct {
	// Shards is S, the number of independent concurrent sketches the key
	// space is striped over. Default DefaultShards.
	Shards int
	// Writers is the number of writer lanes (N per shard). Lane l must be
	// driven by at most one goroutine at a time, across all shards.
	// Default 1.
	Writers int
	// BufferSize overrides the derived per-writer buffer b on every shard.
	// 0 = derive per family. The combined relaxation is Relaxation().
	BufferSize int
	// MaxError is the per-shard eager-phase error budget e (Section 5.3):
	// each shard stays exact until its own substream exceeds 2/e². Use 1.0
	// to disable the eager phase. Default 0.04.
	MaxError float64
	// Seed is the sketch hash seed; 0 means murmur.DefaultSeed.
	Seed uint64
	// RouteSeed decorrelates routing from sketch hashing; 0 derives it from
	// Seed. Sharded sketches can only be compared/merged when both seeds
	// agree.
	RouteSeed uint64
}

func (c *Config) normalise() error {
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards must be ≥ 1, got %d", c.Shards)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("shard: negative Writers")
	}
	if c.BufferSize < 0 {
		return fmt.Errorf("shard: negative BufferSize")
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.MaxError < 0 {
		return fmt.Errorf("shard: negative MaxError")
	}
	if c.Seed == 0 {
		c.Seed = murmur.DefaultSeed
	}
	if c.RouteSeed == 0 {
		c.RouteSeed = c.Seed ^ 0xa076_1d64_78bd_642f // wyhash prime, ≠ 0
	}
	return nil
}

// epochState is one immutable routing/query epoch of a Sharded sketch: the
// current shards (comps, each driven by the framework at the same index in
// fws) receive all new updates; while a swap drains, old points at the
// epoch being drained (still part of every merged query); legacy holds the
// accumulated state of all epochs retired by earlier resizes, folded into
// every merged query via Accumulator.FoldInto. A zero A marks an absent
// plane: legacy is zero until the first epoch retires into it.
//
// An epochState is never mutated after it is published through Sharded.st —
// queries load the pointer once and get a consistent view of exactly which
// state (legacy ∪ old comps ∪ current comps) their fold covers, which is
// what makes resharding transitions atomic from the reader's perspective:
// a query sees a retired epoch either as live shard snapshots or as part of
// the legacy accumulator, never both and never neither.
type epochState[T any, A Accumulator[A], C Mergeable[T, A]] struct {
	comps     []C
	fws       []*core.Framework[T]
	routeSeed uint64
	// old is the epoch being drained by an in-flight swap; nil otherwise.
	old *epochState[T, A, C]
	// legacy is the immutable accumulated state of all retired epochs.
	legacy A
	// basePressure is the final pressure sample of every retired epoch,
	// summed — the counterpart of legacy for the pressure counters. Folding
	// it into each Pressure() sample keeps the sketch-level counters
	// monotonic across swaps: a reader sees a retired epoch's counts either
	// live (walking old's frameworks) or in basePressure, never both,
	// because both travel on the same immutable epoch pointer.
	basePressure core.PressureSample
	// win is the published sliding-window query plane; nil unless a window
	// is enabled (see window.go). Like legacy, it is immutable once
	// published and travels on the epoch pointer, so a rotation — which
	// moves the closing interval's state from live shard snapshots into the
	// window's suffix-merge — is atomic from the reader's perspective.
	win *epochWindow[A]
}

// route maps an element hash to its shard. The hash is remixed with the
// routing seed (xor-multiply-xorshift) so the shard index is statistically
// independent of the bits the sketch consumes.
func (e *epochState[T, A, C]) route(h uint64) int {
	x := h ^ e.routeSeed
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(len(e.fws)))
}

// relaxation returns the combined bound S·r: the maximum number of completed
// updates a cross-shard merged query may miss.
func (e *epochState[T, A, C]) relaxation() int {
	total := 0
	for _, fw := range e.fws {
		total += fw.Relaxation()
	}
	return total
}

// shardRelaxation returns the per-shard relaxation r = 2·N·b. Every
// framework of an epoch shares one configuration, so the first one speaks
// for all.
func (e *epochState[T, A, C]) shardRelaxation() int {
	return e.fws[0].Relaxation()
}

// pressure sums the per-framework ingest-pressure counters of the epoch's
// shards — the live part of Sharded.Pressure. Wait-free.
func (e *epochState[T, A, C]) pressure() core.PressureSample {
	var p core.PressureSample
	for _, fw := range e.fws {
		p = p.Add(fw.Pressure())
	}
	return p
}

// eager reports whether every shard is still in its exact eager phase; while
// true, merged queries reflect every completed update.
func (e *epochState[T, A, C]) eager() bool {
	for _, fw := range e.fws {
		if fw.Lazy() {
			return false
		}
	}
	return true
}

// close stops every shard's propagator and drains all buffers; afterwards
// the epoch's composables summarise everything routed to them exactly (no
// relaxation residue). Call once, after no writer can still touch the epoch.
func (e *epochState[T, A, C]) close() {
	for _, fw := range e.fws {
		fw.Close()
	}
}
