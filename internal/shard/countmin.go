package shard

import (
	"fastsketches/internal/countmin"
	"fastsketches/internal/murmur"
)

// CountMin is a sharded concurrent Count-Min sketch. Keys are striped by
// hash, so each key's counters live on exactly one shard: per-key frequency
// queries touch only the owning shard and keep the tight single-shard
// staleness bound r, while aggregate queries (N, Merged, QueryInto) fold
// all shards and carry the combined S·r bound. It is a thin descriptor
// over the generic Sharded layer: the accumulator is a sequential
// countmin.Sketch whose counter grid is zeroed and refolded per query.
type CountMin struct {
	*Sharded[uint64, *countmin.Sketch, *countmin.Composable]
	seed uint64
}

// NewCountMin builds and starts a sharded concurrent Count-Min sketch
// dimensioned for additive error ≤ eps·N_shard with failure probability
// ≤ delta on every shard.
func NewCountMin(eps, delta float64, cfg Config) (*CountMin, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = 32
	}
	seed := cfg.Seed
	proto := countmin.NewWithError(eps, delta, seed)
	width, depth := proto.Width(), proto.Depth()
	return &CountMin{
		Sharded: newSharded[uint64](&cfg, width,
			func(int) *countmin.Composable {
				return countmin.NewComposable(width, depth, seed)
			},
			func() *countmin.Sketch { return countmin.New(width, depth, seed) },
		),
		seed: seed,
	}, nil
}

// routeKey maps a raw key to its owning shard. Count-Min elements travel as
// raw keys (each row re-hashes internally), so routing hashes the key first.
func (c *CountMin) routeKey(key uint64) uint64 {
	return murmur.HashUint64(key, c.seed)
}

// Update adds one occurrence of key on writer lane lane.
func (c *CountMin) Update(lane int, key uint64) {
	c.update(lane, c.routeKey(key), key)
}

// UpdateString adds one occurrence of a string key on writer lane lane.
func (c *CountMin) UpdateString(lane int, key string) {
	h := murmur.HashString(key, c.seed)
	c.update(lane, c.routeKey(h), h)
}

// Estimate returns the frequency estimate of key — wait-free, never
// underestimating the propagated prefix of the key's updates, with the
// tight single-shard staleness bound r (not S·r). No accumulator involved:
// the owning shard's counters are read directly.
//
// Across resizes the owning shard changes with the routing modulus, so the
// estimate sums the contributions that can hold the key's counts: the
// current epoch's owning shard, the draining epoch's owning shard while a
// Resize transition is in flight, and the legacy sketch holding all retired
// epochs' counters. Each term is itself a never-underestimating Count-Min
// read, so the sum never underestimates either; the price of resharding is
// that the overestimation error after a resize is bounded by ε·N over the
// legacy (whole retired stream) rather than ε·N_shard. The per-key
// staleness bound is ShardRelaxation(): r in steady state, r_old + r_new
// during a transition (legacy state is exact).
func (c *CountMin) Estimate(key uint64) uint64 {
	return c.estimateHashed(c.routeKey(key), key)
}

// EstimateString is Estimate for string keys.
func (c *CountMin) EstimateString(key string) uint64 {
	h := murmur.HashString(key, c.seed)
	return c.estimateHashed(c.routeKey(h), h)
}

// estimateHashed sums the owning-shard estimates of every state component
// that can hold counts for the key: current epoch, draining epoch, legacy,
// and — when a sliding window is enabled — the window's closed-slot
// suffix-merge and resize-carry planes (closed intervals live there, not in
// the shards). Each extra term is one sequential Count-Min read of an
// immutable published accumulator, so the read stays wait-free.
func (c *CountMin) estimateHashed(routeHash, key uint64) uint64 {
	st := c.st.Load()
	est := st.comps[st.route(routeHash)].Estimate(key)
	if st.old != nil {
		est += st.old.comps[st.old.route(routeHash)].Estimate(key)
	}
	if st.legacy != nil {
		est += st.legacy.Estimate(key)
	}
	if w := st.win; w != nil {
		if w.merged != nil {
			est += w.merged.Estimate(key)
		}
		if w.carry != nil {
			est += w.carry.Estimate(key)
		}
	}
	return est
}

// N returns the total weight across the sketch's entire state: legacy
// (retired epochs), the draining epoch during a Resize transition, and
// every current shard. As a cross-shard aggregate it reflects all but at
// most Relaxation() of the completed updates.
func (c *CountMin) N() uint64 {
	st := c.st.Load()
	var total uint64
	if st.legacy != nil {
		total += st.legacy.N()
	}
	if w := st.win; w != nil {
		if w.merged != nil {
			total += w.merged.N()
		}
		if w.carry != nil {
			total += w.carry.N()
		}
	}
	if st.old != nil {
		for _, comp := range st.old.comps {
			total += comp.N()
		}
	}
	for _, comp := range st.comps {
		total += comp.N()
	}
	return total
}

// Merged folds every shard's counters into one sequential sketch (wait-free
// per counter): the element-wise sum summarises the whole stream modulo the
// S·r staleness window. It folds into a fresh (non-pooled) sketch because
// the result escapes to the caller; use QueryInto with a reused accumulator
// for the allocation-free aggregate path.
func (c *CountMin) Merged() *countmin.Sketch {
	acc := c.NewAccumulator()
	c.MergeInto(acc)
	return acc
}

// UpdateBatch adds one occurrence of each key on writer lane lane,
// equivalent to per-item Update calls in order but with per-item
// coordination amortised to per-chunk (see Sharded.updateBatch).
func (c *CountMin) UpdateBatch(lane int, keys []uint64) {
	c.updateBatch(lane, keys, c.routeKey)
}
