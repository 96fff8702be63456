package quantiles

import "math"

// Accumulator is a reusable merge target for summaries: the caller-owned
// accumulator of the sharded merge-on-query path. An Accumulator merges in
// place over a pair of ping-ponged buffers, so once its capacity has grown
// to the working-set size, a query that Resets it and folds every shard
// summary into it allocates nothing.
//
// An Accumulator is not safe for concurrent use; pool or own one per
// goroutine. The summaries folded into it are never retained or mutated.
type Accumulator struct {
	// cur is the merged state so far; its slices are owned by the
	// accumulator and reused across Resets.
	cur Summary
	// scratchV/scratchC receive each merge pass and are then swapped with
	// cur's slices, so both pairs stabilise at the working-set capacity.
	scratchV []float64
	scratchC []float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// SizeBytes estimates the accumulator's resident heap footprint in bytes:
// the struct header plus the merged-summary and scratch slices at their
// retained capacity — the memory-budget accounting hook of the sharded
// layer. A freshly built accumulator reports only the header; the figure
// grows to the working-set capacity after the first merge pass.
func (a *Accumulator) SizeBytes() int {
	return 96 + 8*(cap(a.cur.values)+cap(a.cur.cum)+cap(a.scratchV)+cap(a.scratchC))
}

// Reset empties the accumulator, retaining capacity.
func (a *Accumulator) Reset() {
	a.cur.values = a.cur.values[:0]
	a.cur.cum = a.cur.cum[:0]
	a.cur.n = 0
	a.cur.min, a.cur.max = 0, 0
}

// Merge folds one immutable summary into the accumulator: values are merged
// in sorted order with their weights, and n/min/max accumulate. The rank
// error of the result is bounded by the max of the inputs' errors, as for
// sketch-level merging of mergeable summaries.
func (a *Accumulator) Merge(s *Summary) {
	if s == nil || s.n == 0 {
		return
	}
	if a.cur.n == 0 {
		a.cur.values = append(a.cur.values[:0], s.values...)
		a.cur.cum = append(a.cur.cum[:0], s.cum...)
		a.cur.n, a.cur.min, a.cur.max = s.n, s.min, s.max
		return
	}
	outV := a.scratchV[:0]
	outC := a.scratchC[:0]
	var cum float64
	i, j := 0, 0
	for i < len(a.cur.values) || j < len(s.values) {
		takeCur := j >= len(s.values) ||
			(i < len(a.cur.values) && a.cur.values[i] <= s.values[j])
		if takeCur {
			cum += a.cur.weight(i)
			outV = append(outV, a.cur.values[i])
			i++
		} else {
			cum += s.weight(j)
			outV = append(outV, s.values[j])
			j++
		}
		outC = append(outC, cum)
	}
	// The pre-merge slices become next round's scratch.
	a.scratchV, a.cur.values = a.cur.values, outV
	a.scratchC, a.cur.cum = a.cur.cum, outC
	a.cur.n += s.n
	a.cur.min = math.Min(a.cur.min, s.min)
	a.cur.max = math.Max(a.cur.max, s.max)
}

// FoldInto folds the receiver's accumulated summary into dst without
// mutating the receiver — the retired-state drain hook of the sharded
// layer's live resharding: a legacy Accumulator published by a completed
// Resize is folded into every merged-query accumulator exactly like one
// more shard summary. The merge reads the receiver's current state in
// place (no detached Summary copy), so it allocates nothing once dst's
// buffers have grown; the receiver is only read, making concurrent folds
// into distinct accumulators safe.
func (a *Accumulator) FoldInto(dst *Accumulator) { dst.Merge(&a.cur) }

// N returns the item count of the accumulated state.
func (a *Accumulator) N() uint64 { return a.cur.n }

// Min returns the accumulated minimum (NaN when empty).
func (a *Accumulator) Min() float64 { return a.cur.Min() }

// Max returns the accumulated maximum (NaN when empty).
func (a *Accumulator) Max() float64 { return a.cur.Max() }

// Quantile returns an element of the accumulated state whose normalized rank
// is approximately phi.
func (a *Accumulator) Quantile(phi float64) float64 { return a.cur.Quantile(phi) }

// Rank returns the estimated normalized rank of v in the accumulated state.
func (a *Accumulator) Rank(v float64) float64 { return a.cur.Rank(v) }

// Summary returns the accumulated state as an immutable Summary, detached
// from the accumulator's reusable buffers (this copy is the only allocation
// of a steady-state accumulator query).
func (a *Accumulator) Summary() *Summary {
	if a.cur.n == 0 {
		return emptySummary
	}
	return &Summary{
		values: append([]float64(nil), a.cur.values...),
		cum:    append([]float64(nil), a.cur.cum...),
		n:      a.cur.n,
		min:    a.cur.min,
		max:    a.cur.max,
	}
}
