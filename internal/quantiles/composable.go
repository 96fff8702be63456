package quantiles

import (
	"math"
	"slices"
	"sync/atomic"
)

// Summary is an immutable queryable snapshot of a quantiles sketch: the
// retained items gathered with cumulative weights, supporting O(log n)
// quantile and rank queries. It is what concurrent queries receive — the
// composable-sketch snapshot of the paper's Section 5.1.
type Summary struct {
	values []float64 // ascending
	cum    []float64 // cumulative weights aligned with values
	n      uint64
	min    float64
	max    float64
}

// N returns the number of stream items the snapshot summarises.
func (s *Summary) N() uint64 { return s.n }

// Min returns the exact minimum (NaN when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum (NaN when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns an element whose normalized rank is approximately phi.
func (s *Summary) Quantile(phi float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.min
	}
	if phi >= 1 {
		return s.max
	}
	target := phi * float64(s.n)
	// Binary search the first cumulative weight ≥ target.
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.values[lo]
}

// Rank returns the estimated normalized rank of v.
func (s *Summary) Rank(v float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	// Find the first value ≥ v; the cumulative weight before it is the
	// weight below v.
	lo, hi := 0, len(s.values)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.values[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return s.cum[lo-1] / float64(s.n)
}

// weight returns the individual weight of item i (cum is cumulative).
func (s *Summary) weight(i int) float64 {
	if i == 0 {
		return s.cum[0]
	}
	return s.cum[i] - s.cum[i-1]
}

// emptySummary is the snapshot published before any data arrives.
var emptySummary = &Summary{}

// Composable wraps a quantiles Sketch as the shared global sketch of the
// concurrent framework. Unlike Θ — whose query result fits in one atomic
// word — a quantiles snapshot is a structure, so the composable publishes an
// immutable Summary pointer after every mutation; queries are a single
// atomic pointer load. This is the "queryable copy" semantics of the
// paper's snapshot API: immediately after the snapshot is taken, it answers
// exactly like the sketch it copied.
//
// Publishing merges, it does not sort. The composable caches the levels'
// merged run, rebuilt only when the gadget's level generation changes (a
// compaction, every 2k items), and a sorted copy of the base buffer,
// extended by sorting just the items added since the last publish. A
// publish is then one linear merge of the two runs into a fresh Summary,
// the one sorting every retained item would build (for distinct values,
// field for field).
type Composable struct {
	gadget *Sketch
	snap   atomic.Pointer[Summary]

	// Propagator-owned publication state. gen is the gadget generation the
	// caches reflect; run is the levels merged with their weights; base
	// holds gadget.base[:len(base)] sorted, and tail is the scratch that
	// sorts the items appended since.
	gen        uint64
	run        []weightedItem
	base, tail []float64
}

// NewComposable returns a composable quantiles sketch with parameter k.
func NewComposable(k int, bits BitSource) *Composable {
	c := &Composable{gadget: New(k, bits), base: make([]float64, 0, 2*k)}
	c.snap.Store(emptySummary)
	return c
}

// MergeBuffer folds a batch of raw values into the global sketch and
// publishes a fresh snapshot. Propagator goroutine only.
func (c *Composable) MergeBuffer(values []float64) {
	for _, v := range values {
		c.gadget.Update(v)
	}
	c.publish()
}

// DirectUpdate applies one value during the eager phase and republishes.
func (c *Composable) DirectUpdate(v float64) {
	c.gadget.Update(v)
	c.publish()
}

// publish merges the cached level run and sorted base into a fresh
// immutable summary. The atomic pointer store is the linearisation point of
// the merge.
func (c *Composable) publish() {
	g := c.gadget
	if c.gen != g.gen {
		c.gen = g.gen
		c.mergeLevels()
		c.base = append(c.base[:0], g.base...)
		slices.Sort(c.base)
	} else if old := len(c.base); len(g.base) > old {
		// Sort only the new tail, then merge it in from the back.
		c.tail = append(c.tail[:0], g.base[old:]...)
		slices.Sort(c.tail)
		c.base = append(c.base, c.tail...)
		i, j := old-1, len(c.tail)-1
		for k := len(c.base) - 1; j >= 0; k-- {
			if i >= 0 && c.base[i] > c.tail[j] {
				c.base[k] = c.base[i]
				i--
			} else {
				c.base[k] = c.tail[j]
				j--
			}
		}
	}
	m := len(c.run) + len(c.base)
	buf := make([]float64, 2*m)
	sum := &Summary{values: buf[:m:m], cum: buf[m:], n: g.n, min: g.min, max: g.max}
	var cum float64
	o, j := 0, 0
	for _, it := range c.run {
		for ; j < len(c.base) && c.base[j] < it.value; j++ {
			cum++
			sum.values[o], sum.cum[o] = c.base[j], cum
			o++
		}
		cum += float64(it.weight)
		sum.values[o], sum.cum[o] = it.value, cum
		o++
	}
	for _, v := range c.base[j:] {
		cum++
		sum.values[o], sum.cum[o] = v, cum
		o++
	}
	c.snap.Store(sum)
}

// mergeLevels rebuilds the level run by merging the sorted levels into it
// one at a time, each from the back so the run needs no scratch.
func (c *Composable) mergeLevels() {
	c.run = c.run[:0]
	for i, lv := range c.gadget.lvls {
		if lv == nil {
			continue
		}
		w := uint64(1) << uint(i+1)
		r, j := len(c.run)-1, len(lv)-1
		c.run = append(c.run, make([]weightedItem, len(lv))...)
		for k := len(c.run) - 1; j >= 0; k-- {
			if r >= 0 && c.run[r].value > lv[j] {
				c.run[k] = c.run[r]
				r--
			} else {
				c.run[k] = weightedItem{lv[j], w}
				j--
			}
		}
	}
}

// CalcHint returns 1: the quantiles sketch has no useful pre-filter (every
// update can affect the summary), the trivial implementation the paper
// explicitly allows.
func (c *Composable) CalcHint() uint64 { return 1 }

// ShouldAdd always accepts.
func (c *Composable) ShouldAdd(hint uint64, v float64) bool { return true }

// Snapshot returns the latest published summary (wait-free).
func (c *Composable) Snapshot() *Summary { return c.snap.Load() }

// SnapshotMergeInto folds the latest published summary into the reusable
// accumulator — the merge-on-query path of a sharded deployment: each
// shard's snapshot is taken wait-free and folded without ever touching the
// shard's gadget or allocating a fresh summary.
//
// acc is caller-owned and reusable: the fold merges into acc's ping-ponged
// buffers, so a hot query path can Reset one Accumulator and fold every
// shard into it on each query without allocating once its capacity has
// grown. Repeated reuse is equivalent to a fresh accumulator per query.
func (c *Composable) SnapshotMergeInto(acc *Accumulator) {
	acc.Merge(c.snap.Load())
}

// Quantile is a convenience for Snapshot().Quantile(phi).
func (c *Composable) Quantile(phi float64) float64 {
	return c.snap.Load().Quantile(phi)
}

// Rank is a convenience for Snapshot().Rank(v).
func (c *Composable) Rank(v float64) float64 {
	return c.snap.Load().Rank(v)
}

// N returns the item count of the latest snapshot.
func (c *Composable) N() uint64 { return c.snap.Load().n }

// Gadget exposes the underlying sequential sketch. Only safe after the
// framework has been closed.
func (c *Composable) Gadget() *Sketch { return c.gadget }
