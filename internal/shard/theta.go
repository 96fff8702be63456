package shard

import "fastsketches/internal/theta"

// Theta is a sharded concurrent Θ sketch: S independent concurrent Θ
// sketches striped by key hash, merged on query through a Union of
// per-shard snapshots. Distinct counts are additive across shards because a
// key always routes to the same shard. It is a thin descriptor over the
// generic Sharded layer: the composable is theta.Composable with snapshots
// enabled, the accumulator is a theta.Union reset and refolded per query.
type Theta struct {
	*Sharded[uint64, *theta.Union, *theta.Composable]
	seed uint64
}

// NewTheta builds and starts a sharded concurrent Θ sketch with 2^lgK
// nominal entries per shard.
func NewTheta(lgK int, cfg Config) (*Theta, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	return &Theta{
		Sharded: newSharded[uint64](&cfg, 1<<lgK,
			func(int) *theta.Composable {
				c := theta.NewComposable(lgK, seed)
				c.EnableSnapshots()
				return c
			},
			func() *theta.Union { return theta.NewUnion(lgK, seed) },
		),
		seed: seed,
	}, nil
}

// Update ingests a uint64 key on writer lane lane.
func (t *Theta) Update(lane int, key uint64) {
	h := theta.HashKey(key, t.seed)
	t.update(lane, h, h)
}

// UpdateString ingests a string key on writer lane lane.
func (t *Theta) UpdateString(lane int, key string) {
	h := theta.HashString(key, t.seed)
	t.update(lane, h, h)
}

// Estimate answers the merged distinct-count query: every shard's published
// snapshot is folded wait-free into a pooled Union accumulator that is
// reused across queries (reset before each fold), so the steady-state query
// path allocates nothing. Accumulator reuse does not change the answer — a
// reused Union is equivalent to a fresh one per query — nor the staleness
// contract: the result still reflects all but at most
// Relaxation() = S·r = S·2·N·b of the updates completed before the call.
func (t *Theta) Estimate() float64 {
	acc := t.acquire()
	t.MergeInto(acc)
	est := acc.Estimate()
	t.release(acc)
	return est
}

// Eager reports whether every shard is still in its eager phase. While true,
// every completed update is immediately visible to merged queries; note that
// Estimate is additionally exact only while the total distinct count also
// fits the merge Union's exact mode (< 2·2^lgK retained) — with S shards the
// combined eager window S·2/e² can exceed that for large S, at which point
// the merged answer is a (still correct) sampled estimate.
func (t *Theta) Eager() bool { return t.Sharded.Eager() }

// Merged returns the merged snapshot as a standalone sequential sketch, for
// set operations or serialisation. Wait-free, like Estimate; it folds into
// a fresh (non-pooled) Union because the result escapes to the caller.
func (t *Theta) Merged() *theta.QuickSelect {
	u := t.NewAccumulator()
	t.MergeInto(u)
	return u.Result()
}

// UpdateBatch ingests a contiguous chunk of uint64 keys on writer lane lane,
// equivalent to per-item Update calls in order but with per-item
// coordination amortised to per-chunk (see Sharded.updateBatch). keys is
// consumed as scratch: the call overwrites its contents with the keys'
// hashes while routing.
func (t *Theta) UpdateBatch(lane int, keys []uint64) {
	for i, k := range keys {
		keys[i] = theta.HashKey(k, t.seed)
	}
	t.updateBatch(lane, keys, func(h uint64) uint64 { return h })
}

// ConfidenceBounds returns approximate bounds on the true distinct count at
// the given number of standard deviations (1–3), around Estimate.
func (t *Theta) ConfidenceBounds(stdDevs int) (lo, hi float64) {
	return theta.ConfidenceBounds(t.Estimate(), t.k, stdDevs)
}
