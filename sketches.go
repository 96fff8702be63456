// Package fastsketches is a Go implementation of "Fast Concurrent Data
// Sketches" (Rinberg, Spiegelman, Bortnikov, Hillel, Keidar, Rhodes,
// Serviansky — PPoPP 2020): a generic framework that turns sequential data
// sketches into high-throughput concurrent ones that can be queried in real
// time while being built, with a provable bound on the error the concurrency
// introduces.
//
// Four sketch families are provided, each in a sequential and a concurrent
// form:
//
//   - Θ (theta) sketches for distinct counting (KMV and QuickSelect
//     variants, unions, intersections, differences, Jaccard similarity);
//   - Quantiles sketches (mergeable summaries) for rank/quantile queries;
//   - HLL sketches for memory-lean distinct counting;
//   - Count-Min sketches for per-key frequency estimates.
//
// The concurrent types follow the paper's OptParSketch algorithm: each
// writer goroutine owns a lane with two local buffers; a background
// propagator merges filled buffers into a shared composable sketch; queries
// read a published snapshot wait-free. A query may miss at most
// r = 2·writers·buffer updates (the relaxation), and for small streams an
// adaptive "eager" phase keeps queries exact until the stream outgrows
// 2/e² items, where e is the error budget you configure.
//
// # Quick start
//
//	sk, _ := fastsketches.NewConcurrentTheta(fastsketches.ThetaConfig{
//		LgK: 12, Writers: 4, MaxError: 0.04,
//	})
//	defer sk.Close()
//	// each writer goroutine w ∈ [0,4) ingests on its own lane:
//	sk.Update(w, key)
//	// any goroutine, at any time:
//	estimate := sk.Estimate()
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
// The Spec is declarative — shard count, materialized view, autoscale
// policy, and ops lifecycle (IdleTTL, Pinned) are (re)applied on every
// Open that sets them, and a zero Spec changes nothing, so reopening a
// live name is a cheap handle fetch.
//
// The staleness contract extends shard-wise: each shard is r-relaxed with
// r = 2·Writers·b (Theorem 1), and a merged query folds one wait-free
// snapshot per shard, so it misses at most S·r completed updates in total;
// per-key Count-Min estimates touch only the owning shard and keep the
// tighter single-shard r. Shard count is therefore a throughput/staleness
// dial: more shards mean more parallel propagators and smaller per-shard
// writer contention, but a larger combined S·r window for cross-shard
// queries. Eager small-stream semantics also hold per shard — every shard
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
//	visitors.Resize(16) // going viral: throughput ↑
//	visitors.Resize(2)  // nightly lull: staleness ↓
//
// See docs/ARCHITECTURE.md for the layer map, the bound derivations and
// the epoch protocol, and examples/resharding for a runnable walkthrough.
package fastsketches

import (
	"fmt"

	"fastsketches/internal/core"
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
// Concurrent Θ sketch
// ---------------------------------------------------------------------------

// ThetaConfig configures a ConcurrentTheta.
type ThetaConfig struct {
	// LgK is log2 of the nominal sample count k of the shared sketch.
	// Larger k → smaller error (RSE ≈ 1/√k) but bigger memory. Default 12
	// (k=4096, the paper's configuration).
	LgK int
	// Writers is the number of ingestion lanes (N in the paper). Each lane
	// must be used by one goroutine at a time. Default 1.
	Writers int
	// MaxError is e, the extra relative error tolerated from concurrency on
	// small streams; the sketch stays exact (sequential, "eager") until the
	// stream exceeds 2/e². Use 1.0 to disable the eager phase. Default 0.04
	// (the paper's configuration).
	MaxError float64
	// BufferSize overrides the derived per-writer buffer b. 0 = derive from
	// LgK, MaxError and Writers. The relaxation is r = 2·Writers·b.
	BufferSize int
	// Unoptimised selects the paper's ParSketch variant (writers block
	// during propagation; r = Writers·b) instead of OptParSketch.
	Unoptimised bool
	// AdaptiveBuffers enables the hint-driven buffer growth the paper
	// proposes as future work: local buffers scale with 1/Θ (clamped), so
	// propagation frequency per raw update stays steady as filtering
	// strengthens. Relaxation() reports the worst-case grown bound.
	AdaptiveBuffers bool
	// Seed is the hash seed; 0 means DefaultSeed. Sketches can only be
	// merged/compared when their seeds agree.
	Seed uint64
}

func (c *ThetaConfig) normalise() error {
	if c.LgK == 0 {
		c.LgK = 12
	}
	if c.LgK < 2 || c.LgK > 26 {
		return fmt.Errorf("%w: LgK %d outside [2,26]", ErrConfig, c.LgK)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("%w: negative Writers", ErrConfig)
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.MaxError < 0 {
		return fmt.Errorf("%w: negative MaxError", ErrConfig)
	}
	if c.BufferSize < 0 {
		return fmt.Errorf("%w: negative BufferSize", ErrConfig)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return nil
}

// ConcurrentTheta is a Θ sketch that can be updated by multiple goroutines
// and queried in real time while it is being built.
type ConcurrentTheta struct {
	comp *theta.Composable
	fw   *core.Framework[uint64]
	seed uint64
}

// NewConcurrentTheta builds and starts a concurrent Θ sketch.
func NewConcurrentTheta(cfg ThetaConfig) (*ConcurrentTheta, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	mode := core.ModeOptimised
	if cfg.Unoptimised {
		mode = core.ModeUnoptimised
	}
	comp := theta.NewComposable(cfg.LgK, cfg.Seed)
	fw := core.New[uint64](comp, core.Config{
		Workers:         cfg.Writers,
		BufferSize:      cfg.BufferSize,
		Mode:            mode,
		MaxError:        cfg.MaxError,
		K:               1 << cfg.LgK,
		AdaptiveBuffers: cfg.AdaptiveBuffers,
	})
	fw.Start()
	return &ConcurrentTheta{comp: comp, fw: fw, seed: cfg.Seed}, nil
}

// Update ingests a uint64 key on writer lane w ∈ [0, Writers).
func (t *ConcurrentTheta) Update(w int, key uint64) {
	t.fw.Update(w, theta.HashKey(key, t.seed))
}

// UpdateString ingests a string key on writer lane w.
func (t *ConcurrentTheta) UpdateString(w int, key string) {
	t.fw.Update(w, theta.HashString(key, t.seed))
}

// UpdateBytes ingests a byte-slice key on writer lane w.
func (t *ConcurrentTheta) UpdateBytes(w int, key []byte) {
	t.fw.Update(w, theta.HashBytes(key, t.seed))
}

// Estimate returns the current distinct-count estimate. Wait-free; may be
// called from any goroutine at any time. The result reflects all but at
// most Relaxation() of the updates that completed before the call.
func (t *ConcurrentTheta) Estimate() float64 { return t.comp.Estimate() }

// ConfidenceBounds returns approximate bounds on the true distinct count at
// the given number of standard deviations (1–3).
func (t *ConcurrentTheta) ConfidenceBounds(stdDevs int) (lo, hi float64) {
	k := t.comp.Gadget().K()
	return theta.ConfidenceBounds(t.Estimate(), k, stdDevs)
}

// Relaxation returns r: the max number of completed updates a query may miss.
func (t *ConcurrentTheta) Relaxation() int { return t.fw.Relaxation() }

// Writers returns the number of ingestion lanes.
func (t *ConcurrentTheta) Writers() int { return t.fw.Workers() }

// Close stops the propagator and drains all buffered updates; afterwards
// Estimate reflects every ingested element. Call once, after all writer
// goroutines have stopped updating.
func (t *ConcurrentTheta) Close() { t.fw.Close() }

// Result returns the underlying sequential sketch after Close — useful for
// serialisation or set operations against other sketches.
func (t *ConcurrentTheta) Result() *theta.QuickSelect { return t.comp.Gadget() }

// ---------------------------------------------------------------------------
// Concurrent Quantiles sketch
// ---------------------------------------------------------------------------

// QuantilesConfig configures a ConcurrentQuantiles.
type QuantilesConfig struct {
	// K is the summary parameter (items per level); larger K → smaller rank
	// error. Default 128.
	K int
	// Writers is the number of ingestion lanes. Default 1.
	Writers int
	// MaxError is the eager-phase error budget, as in ThetaConfig. Default
	// 0.04; 1.0 disables the eager phase.
	MaxError float64
	// BufferSize overrides the derived per-writer buffer. Default 64 for
	// quantiles (propagations republish a snapshot, so larger batches
	// amortise better than Θ's).
	BufferSize int
	// RandSeed seeds the compaction coin flips. 0 = derive from K.
	RandSeed int64
}

func (c *QuantilesConfig) normalise() error {
	if c.K == 0 {
		c.K = 128
	}
	if c.K < 2 {
		return fmt.Errorf("%w: K must be ≥ 2", ErrConfig)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("%w: negative Writers", ErrConfig)
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.BufferSize == 0 {
		c.BufferSize = 64
	}
	if c.BufferSize < 0 {
		return fmt.Errorf("%w: negative BufferSize", ErrConfig)
	}
	if c.RandSeed == 0 {
		c.RandSeed = int64(c.K)
	}
	return nil
}

// ConcurrentQuantiles is a quantiles sketch with concurrent ingestion and
// wait-free snapshot queries.
type ConcurrentQuantiles struct {
	comp *quantiles.Composable
	fw   *core.Framework[float64]
}

// NewConcurrentQuantiles builds and starts a concurrent quantiles sketch.
func NewConcurrentQuantiles(cfg QuantilesConfig) (*ConcurrentQuantiles, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	comp := quantiles.NewComposable(cfg.K, quantiles.NewRandomBits(cfg.RandSeed))
	fw := core.New[float64](comp, core.Config{
		Workers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   cfg.MaxError,
		K:          cfg.K,
	})
	fw.Start()
	return &ConcurrentQuantiles{comp: comp, fw: fw}, nil
}

// Update ingests one value on writer lane w.
func (q *ConcurrentQuantiles) Update(w int, v float64) { q.fw.Update(w, v) }

// Quantile returns an element whose normalized rank is ≈ phi, from the
// latest published snapshot (wait-free).
func (q *ConcurrentQuantiles) Quantile(phi float64) float64 { return q.comp.Quantile(phi) }

// Rank returns the estimated normalized rank of v (wait-free).
func (q *ConcurrentQuantiles) Rank(v float64) float64 { return q.comp.Rank(v) }

// Snapshot returns an immutable consistent view supporting many queries.
func (q *ConcurrentQuantiles) Snapshot() *quantiles.Summary { return q.comp.Snapshot() }

// N returns the number of items reflected in the latest snapshot.
func (q *ConcurrentQuantiles) N() uint64 { return q.comp.N() }

// Relaxation returns r, the max number of completed updates a query may miss.
func (q *ConcurrentQuantiles) Relaxation() int { return q.fw.Relaxation() }

// Close stops the propagator and drains all buffers.
func (q *ConcurrentQuantiles) Close() { q.fw.Close() }

// Result returns the underlying sequential sketch after Close.
func (q *ConcurrentQuantiles) Result() *quantiles.Sketch { return q.comp.Gadget() }

// ---------------------------------------------------------------------------
// Concurrent HLL sketch
// ---------------------------------------------------------------------------

// HLLConfig configures a ConcurrentHLL.
type HLLConfig struct {
	// P is the precision: 2^P registers, RSE ≈ 1.04/√(2^P). Default 12.
	P int
	// Writers is the number of ingestion lanes. Default 1.
	Writers int
	// MaxError is the eager-phase error budget. Default 0.04.
	MaxError float64
	// BufferSize overrides the per-writer buffer. Default 16.
	BufferSize int
	// Seed is the hash seed; 0 means DefaultSeed.
	Seed uint64
}

func (c *HLLConfig) normalise() error {
	if c.P == 0 {
		c.P = 12
	}
	if c.P < 4 || c.P > 21 {
		return fmt.Errorf("%w: P %d outside [4,21]", ErrConfig, c.P)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("%w: negative Writers", ErrConfig)
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.BufferSize == 0 {
		c.BufferSize = 16
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return nil
}

// ConcurrentHLL is an HLL sketch with concurrent ingestion and wait-free
// queries.
type ConcurrentHLL struct {
	comp *hll.Composable
	fw   *core.Framework[uint64]
	seed uint64
}

// NewConcurrentHLL builds and starts a concurrent HLL sketch.
func NewConcurrentHLL(cfg HLLConfig) (*ConcurrentHLL, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	comp := hll.NewComposable(cfg.P, cfg.Seed)
	fw := core.New[uint64](comp, core.Config{
		Workers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   cfg.MaxError,
		K:          1 << cfg.P,
	})
	fw.Start()
	return &ConcurrentHLL{comp: comp, fw: fw, seed: cfg.Seed}, nil
}

// Update ingests a uint64 key on writer lane w.
func (h *ConcurrentHLL) Update(w int, key uint64) {
	h.fw.Update(w, murmur.HashUint64(key, h.seed))
}

// UpdateString ingests a string key on writer lane w.
func (h *ConcurrentHLL) UpdateString(w int, key string) {
	h.fw.Update(w, murmur.HashString(key, h.seed))
}

// Estimate returns the current distinct-count estimate (wait-free).
func (h *ConcurrentHLL) Estimate() float64 { return h.comp.Estimate() }

// Close stops the propagator and drains all buffers.
func (h *ConcurrentHLL) Close() { h.fw.Close() }

// ---------------------------------------------------------------------------
// Sequential re-exports
// ---------------------------------------------------------------------------

// NewThetaSketch returns a sequential QuickSelect Θ sketch (not safe for
// concurrent use) — the building block the concurrent sketch wraps, also
// useful on its own for single-threaded pipelines and set operations.
func NewThetaSketch(lgK int, seed uint64) *theta.QuickSelect {
	if seed == 0 {
		seed = DefaultSeed
	}
	return theta.NewQuickSelect(lgK, seed)
}

// NewKMVSketch returns a sequential KMV Θ sketch (Algorithm 1 of the paper).
func NewKMVSketch(k int, seed uint64) *theta.KMV {
	if seed == 0 {
		seed = DefaultSeed
	}
	return theta.NewKMV(k, seed)
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
