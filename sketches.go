// Package fastsketches is a Go implementation of "Fast Concurrent Data
// Sketches" (Rinberg, Spiegelman, Bortnikov, Hillel, Keidar, Rhodes,
// Serviansky — PPoPP 2020): a generic framework that turns sequential data
// sketches into high-throughput concurrent ones that can be queried in real
// time while being built, with a provable bound on the error the concurrency
// introduces.
//
// Four sketch families are provided, each as a sequential sketch and as a
// concurrent one opened by name from a Registry:
//
//   - Θ (theta) sketches for distinct counting (QuickSelect, with unions,
//     intersections and differences);
//   - Quantiles sketches (mergeable summaries) for rank/quantile queries;
//   - HLL sketches for memory-lean distinct counting;
//   - Count-Min sketches for per-key frequency estimates.
//
// A concurrent sketch follows the paper's OptParSketch algorithm: each
// writer goroutine owns a lane with two local buffers; a background
// propagator merges filled buffers into a shared composable sketch; queries
// read a published snapshot wait-free. A query may miss at most
// r = 2·writers·buffer updates (the relaxation), and for small streams an
// adaptive "eager" phase keeps queries exact until the stream outgrows
// 2/e² items, where e is the error budget you configure.
//
// # Quick start
//
// A Registry with one shard serves exactly the paper's object — one
// concurrent, r-relaxed sketch per name:
//
//	reg, _ := fastsketches.NewRegistry(fastsketches.RegistryConfig{
//		Shards: 1, Writers: 4, ThetaLgK: 12, MaxError: 0.04,
//	})
//	defer reg.Close()
//	users, _ := reg.OpenTheta("users", fastsketches.Spec{})
//	// each writer goroutine w ∈ [0,4) ingests on its own lane:
//	users.Update(w, key)
//	// any goroutine, at any time:
//	estimate := users.Sketch().Estimate()
//
// # Sharded multi-tenant registry
//
// A service ingesting many keyed streams uses the Registry: named sketches
// opened (get-or-create) through typed handles, each striped across S
// independent concurrent sketches (its own propagator and writer lanes per
// shard) with queries merging per-shard snapshots on demand:
//
//	reg, _ := fastsketches.NewRegistry(fastsketches.RegistryConfig{
//		Shards: 8, Writers: 4,
//	})
//	defer reg.Close()
//	visitors, _ := reg.OpenTheta("tenant-42/visitors", fastsketches.Spec{})
//	latency, _ := reg.OpenQuantiles("tenant-42/latency", fastsketches.Spec{})
//	visitors.Update(lane, userID)
//	latency.Update(lane, ms)
//	est := visitors.Sketch().Estimate() // merged, wait-free
//
// The Spec is declarative — shard count, materialized view, window and
// ops lifecycle (IdleTTL, Pinned) are (re)applied on every
// Open that sets them, and a zero Spec changes nothing, so reopening a
// live name is a cheap handle fetch.
//
// The staleness contract extends shard-wise: each shard is r-relaxed with
// r = 2·Writers·b (Theorem 1), and a merged query folds one wait-free
// snapshot per shard, so it misses at most S·r completed updates in total;
// per-key Count-Min estimates touch only the owning shard and keep the
// tighter single-shard r. Shard count is therefore a staleness dial: more
// shards mean more independent propagators, but a larger combined S·r
// window for cross-shard queries. Eager small-stream semantics also hold per shard — every shard
// answers exactly until its own substream exceeds 2/e².
//
// Merged queries are allocation-free steady-state: each named sketch pools
// reusable merge accumulators, and query methods reset one and fold the
// shard snapshots into it rather than allocating per query. Callers that
// prefer to own the accumulator (one per reader goroutine, say) build one
// with the handle's NewAccumulator and query through its QueryInto.
//
// # Live resharding
//
// The shard count is not frozen at construction: Handle.Resize (or a
// reopen with Spec.Shards set, or Resize on the sketch itself) grows or
// shrinks a named sketch's shard group while writers and queriers stay
// active —
// an atomic routing-epoch swap followed by an exact drain of the old
// shards into a retained legacy state. No completed update is lost or
// double-counted across a resize; merged queries transiently carry the
// combined bound S_old·r + S_new·r while a drain is in flight and settle
// at the new S·r once Resize returns:
//
//	visitors.Resize(16) // more independent shards, bound 16·r
//	visitors.Resize(2)  // staleness ↓, bound 2·r
//
// See docs/ARCHITECTURE.md for the layer map, the bound derivations and
// the epoch protocol, and this package's examples for executed
// walkthroughs.
package fastsketches

import (
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// DefaultSeed is the MurmurHash3 seed used when a config leaves Seed zero;
// it matches Apache DataSketches' default so serialised summaries agree.
const DefaultSeed = murmur.DefaultSeed

// ErrConfig reports an invalid configuration, a rejected Spec included.
var ErrConfig = wire.ErrConfig

// ---------------------------------------------------------------------------
// Sequential re-exports
// ---------------------------------------------------------------------------

// NewThetaSketch returns a sequential QuickSelect Θ sketch (not safe for
// concurrent use) — the building block a registry Θ sketch wraps, also
// useful on its own for single-threaded pipelines and set operations.
func NewThetaSketch(lgK int, seed uint64) *theta.QuickSelect {
	if seed == 0 {
		seed = DefaultSeed
	}
	return theta.NewQuickSelect(lgK, seed)
}

// NewQuantilesSketch returns a sequential mergeable quantiles sketch.
func NewQuantilesSketch(k int) *quantiles.Sketch {
	return quantiles.New(k, nil)
}

// NewHLLSketch returns a sequential HLL sketch.
func NewHLLSketch(p int, seed uint64) *hll.Sketch {
	if seed == 0 {
		seed = DefaultSeed
	}
	return hll.New(p, seed)
}

// ThetaUnion returns a union accumulator for Θ sketches.
func ThetaUnion(lgK int, seed uint64) *theta.Union {
	if seed == 0 {
		seed = DefaultSeed
	}
	return theta.NewUnion(lgK, seed)
}

// ThetaIntersect estimates |A∩B| from two Θ sketches.
func ThetaIntersect(a, b theta.Sketch) *theta.CompactSketch { return theta.Intersect(a, b) }

// ThetaAnotB estimates |A\B| from two Θ sketches.
func ThetaAnotB(a, b theta.Sketch) *theta.CompactSketch { return theta.AnotB(a, b) }
