package shard

import (
	"math"

	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
)

// Quantiles is a sharded concurrent quantiles sketch: values are striped by
// a hash of their bit pattern (so equal values co-locate and shards stay
// balanced for diverse streams), and queries merge the S immutable shard
// summaries on demand. Summary merging is exact — weights and order are
// preserved — so the merged rank error is bounded by the worst shard's ε.
// It is a thin descriptor over the generic Sharded layer: the accumulator
// is a quantiles.Accumulator that merges shard summaries over reused
// ping-ponged buffers instead of allocating a fresh Summary per fold.
type Quantiles struct {
	*Sharded[float64, *quantiles.Accumulator, *quantiles.Composable]
}

// NewQuantiles builds and starts a sharded concurrent quantiles sketch with
// summary parameter k per shard.
func NewQuantiles(k int, cfg Config) (*Quantiles, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if cfg.BufferSize == 0 {
		// Every propagation publishes a fresh summary: one linear merge of
		// the retained items (≈1.5k at k=128), which b=64 amortises. b does
		// not shrink as that merge gets cheaper, because it sets the
		// promised relaxation r = 2·N·b.
		cfg.BufferSize = 64
	}
	seed := cfg.Seed
	return &Quantiles{
		Sharded: newSharded[float64](&cfg, k,
			func(i int) *quantiles.Composable {
				return quantiles.NewComposable(k, quantiles.NewRandomBits(int64(seed)+int64(i)))
			},
			quantiles.NewAccumulator,
		),
	}, nil
}

// Update ingests one value on writer lane lane.
func (q *Quantiles) Update(lane int, v float64) {
	q.update(lane, murmur.HashUint64(math.Float64bits(v), q.cfg.RouteSeed), v)
}

// Summary returns the merged summary over all shard snapshots — an immutable
// view supporting many queries. Wait-free: one atomic pointer load per shard
// plus the fold (through a pooled, reused accumulator), with one allocation
// for the returned copy since it escapes. The view reflects all but at most
// Relaxation() of the updates completed before the call. Scalar queries
// (Quantile, Rank, N) skip the copy and allocate nothing steady-state.
func (q *Quantiles) Summary() *quantiles.Summary {
	if st := q.st.Load(); len(st.comps) == 1 && st.old == nil && st.legacy == nil && st.win == nil {
		// Single shard and no resize history: the published snapshot is
		// already an immutable merged view — share it, zero copies.
		return st.comps[0].Snapshot()
	}
	acc := q.acquire()
	q.MergeInto(acc)
	s := acc.Summary()
	q.release(acc)
	return s
}

// Quantile returns an element of the merged state whose normalized rank is
// ≈ phi, folding through a pooled reused accumulator (no steady-state
// allocation).
func (q *Quantiles) Quantile(phi float64) float64 {
	acc := q.acquire()
	q.MergeInto(acc)
	v := acc.Quantile(phi)
	q.release(acc)
	return v
}

// Rank returns the estimated normalized rank of v in the merged state,
// folding through a pooled reused accumulator.
func (q *Quantiles) Rank(v float64) float64 {
	acc := q.acquire()
	q.MergeInto(acc)
	r := acc.Rank(v)
	q.release(acc)
	return r
}

// N returns the item count of the merged state, folding through a pooled
// reused accumulator.
func (q *Quantiles) N() uint64 {
	acc := q.acquire()
	q.MergeInto(acc)
	n := acc.N()
	q.release(acc)
	return n
}

// UpdateBatch ingests a contiguous chunk of values on writer lane lane,
// equivalent to per-item Update calls in order but with per-item
// coordination amortised to per-chunk (see Sharded.updateBatch).
func (q *Quantiles) UpdateBatch(lane int, vs []float64) {
	seed := q.cfg.RouteSeed
	q.updateBatch(lane, vs, func(v float64) uint64 {
		return murmur.HashUint64(math.Float64bits(v), seed)
	})
}
