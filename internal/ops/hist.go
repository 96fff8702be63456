package ops

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets a Hist tracks: bucket i
// counts observations with value < 2^i (cumulatively exported), bucket
// histBuckets-1 is the overflow (+Inf) bucket. 2^62 covers any int64 the
// ingest plane can produce (batch item counts, nanosecond durations).
const histBuckets = 63

// Hist is a wait-free power-of-two-bucketed histogram: Observe is two
// atomic adds and a bit scan — no locks, no allocation — so the serving
// layer can record every ingest batch without giving up the ingest plane's
// zero-alloc, wait-free contract, while a concurrent /metrics scrape reads
// the buckets with plain atomic loads. Counts are monotonic; a scrape
// racing an Observe sees either the pre- or post-observation value of each
// counter, which Prometheus's cumulative-bucket semantics tolerate by
// design.
type Hist struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Bucket index: smallest i with v < 2^i, i.e. bit length of v.
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.bucket[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// snapshot loads the per-bucket counts (non-cumulative) into dst.
func (h *Hist) snapshot(dst *[histBuckets]int64) {
	for i := range h.bucket {
		dst[i] = h.bucket[i].Load()
	}
}

// IngestObserver is the process-wide ingest instrumentation the serving
// layer feeds: one Observe pair per served ingest batch (item count and
// apply duration), recorded by the connection that applied it on a claimed
// writer lane, after the batch's updates landed. Both histograms are
// wait-free and allocation-free, so observing costs the hot path two clock
// reads and a handful of atomic adds per batch.
type IngestObserver struct {
	// Items buckets the item count of each applied batch.
	Items Hist
	// Nanos buckets each batch's apply duration in nanoseconds.
	Nanos Hist
}

// ObserveChunk records one applied batch: n items applied in d nanoseconds.
func (o *IngestObserver) ObserveChunk(n, d int64) {
	o.Items.Observe(n)
	o.Nanos.Observe(d)
}
