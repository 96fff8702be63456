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
// # Live resharding
//
// S is not frozen at construction: Resize grows or shrinks the shard group
// while writers and queriers stay active. Routing goes through an
// atomically-swapped immutable epoch — current shards, optionally the old
// epoch still draining, and a legacy accumulator holding all state retired
// by earlier resizes. A resize builds and publishes the new epoch, waits
// out in-flight writers behind per-lane seqlocks, closes the old epoch's
// frameworks (an exact drain), folds the old shards' final snapshots into
// the legacy accumulator through the same group fold queries use, and
// retires the old epoch in one atomic store. Because every query
// reads one epoch pointer, it sees a retired epoch either live or as
// legacy — never both, never neither — so no completed update is lost or
// double-counted across a resize. The merged-query staleness bound is
// transiently S_old·r + S_new·r while a drain is in flight and returns to
// the new S·r when Resize completes; Relaxation() always reports the
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

// group owns the S core framework instances of one sharded sketch and the
// routing state shared by every family.
type group[T any] struct {
	fws       []*core.Framework[T]
	routeSeed uint64
}

// newGroup builds and starts one framework per shard over the given globals.
func newGroup[T any](cfg *Config, k int, globals []core.Global[T]) group[T] {
	g := group[T]{
		fws:       make([]*core.Framework[T], len(globals)),
		routeSeed: cfg.RouteSeed,
	}
	for i, gl := range globals {
		fw := core.New[T](gl, core.Config{
			Workers:    cfg.Writers,
			BufferSize: cfg.BufferSize,
			MaxError:   cfg.MaxError,
			K:          k,
		})
		fw.Start()
		g.fws[i] = fw
	}
	return g
}

// route maps an element hash to its shard. The hash is remixed with the
// routing seed (xor-multiply-xorshift) so the shard index is statistically
// independent of the bits the sketch consumes.
func (g *group[T]) route(h uint64) int {
	x := h ^ g.routeSeed
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(len(g.fws)))
}

// update ingests item on writer lane of the shard selected by routeHash.
func (g *group[T]) update(lane int, routeHash uint64, item T) {
	g.fws[g.route(routeHash)].Update(lane, item)
}

// relaxation returns the combined bound S·r: the maximum number of completed
// updates a cross-shard merged query may miss.
func (g *group[T]) relaxation() int {
	total := 0
	for _, fw := range g.fws {
		total += fw.Relaxation()
	}
	return total
}

// pressure sums the per-framework ingest-pressure counters across the group
// — the sample Sharded.Pressure sums. Wait-free.
func (g *group[T]) pressure() core.PressureSample {
	var p core.PressureSample
	for _, fw := range g.fws {
		p = p.Add(fw.Pressure())
	}
	return p
}

// shardRelaxation returns the per-shard relaxation r = 2·N·b. Every
// framework in the group shares one configuration, so the first one speaks
// for all.
func (g *group[T]) shardRelaxation() int {
	if len(g.fws) == 0 {
		return 0
	}
	return g.fws[0].Relaxation()
}

// eager reports whether every shard is still in its exact eager phase; while
// true, merged queries reflect every completed update.
func (g *group[T]) eager() bool {
	for _, fw := range g.fws {
		if fw.Lazy() {
			return false
		}
	}
	return true
}

// stats sums per-shard framework counters.
func (g *group[T]) stats() core.Stats {
	var s core.Stats
	for _, fw := range g.fws {
		st := fw.Stats()
		s.Accepted += st.Accepted
		s.Filtered += st.Filtered
	}
	return s
}

// close stops every shard's propagator and drains all buffers; afterwards
// merged queries summarise the entire ingested stream exactly (no
// relaxation residue). Call once, after all writer goroutines stop.
func (g *group[T]) close() {
	for _, fw := range g.fws {
		fw.Close()
	}
}
