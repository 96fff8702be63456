package quantiles

import (
	"math"
	"testing"
)

// MergeSummaries is Accumulator's reference oracle: it combines two
// immutable summaries into a freshly allocated one summarising the
// concatenation of their streams: values are merged in sorted order with
// their weights, and n/min/max accumulate. Either argument may be nil or
// empty, in which case the other is returned unchanged (summaries are
// immutable, so sharing is safe). The rank error of the result is bounded by
// the max of the inputs' errors, as for sketch-level merging of mergeable
// summaries.
func MergeSummaries(a, b *Summary) *Summary {
	if a == nil || a.n == 0 {
		if b == nil {
			return emptySummary
		}
		return b
	}
	if b == nil || b.n == 0 {
		return a
	}
	out := &Summary{
		values: make([]float64, 0, len(a.values)+len(b.values)),
		cum:    make([]float64, 0, len(a.values)+len(b.values)),
		n:      a.n + b.n,
		min:    math.Min(a.min, b.min),
		max:    math.Max(a.max, b.max),
	}
	var cum float64
	i, j := 0, 0
	for i < len(a.values) || j < len(b.values) {
		takeA := j >= len(b.values) ||
			(i < len(a.values) && a.values[i] <= b.values[j])
		if takeA {
			cum += a.weight(i)
			out.values = append(out.values, a.values[i])
			i++
		} else {
			cum += b.weight(j)
			out.values = append(out.values, b.values[j])
			j++
		}
		out.cum = append(out.cum, cum)
	}
	return out
}

// buildSummary returns a published summary over the given values.
func buildSummary(t *testing.T, k int, seed int64, values []float64) *Summary {
	t.Helper()
	c := NewComposable(k, NewRandomBits(seed))
	c.MergeBuffer(values)
	return c.Snapshot()
}

func TestAccumulatorEqualsMergeSummaries(t *testing.T) {
	// Folding summaries into one reused Accumulator must reproduce the
	// allocating MergeSummaries fold value-for-value, weight-for-weight.
	streams := [][]float64{
		{1, 2, 3, 4, 5},
		{2.5, 2.5, 100, -7},
		{}, // empty summary is a no-op on both paths
		func() []float64 {
			vs := make([]float64, 5000)
			for i := range vs {
				vs[i] = float64((i * 37) % 1000)
			}
			return vs
		}(),
	}
	var ref *Summary
	acc := NewAccumulator()
	for i, vals := range streams {
		s := buildSummary(t, 64, int64(i+1), vals)
		ref = MergeSummaries(ref, s)
		acc.Merge(s)
	}
	if acc.N() != ref.N() {
		t.Fatalf("acc N %d != ref %d", acc.N(), ref.N())
	}
	if acc.Min() != ref.Min() || acc.Max() != ref.Max() {
		t.Fatalf("acc min/max %v/%v != ref %v/%v", acc.Min(), acc.Max(), ref.Min(), ref.Max())
	}
	for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		if got, want := acc.Quantile(phi), ref.Quantile(phi); got != want {
			t.Errorf("phi=%v: acc quantile %v != ref %v", phi, got, want)
		}
	}
	for _, v := range []float64{-10, 0, 2.5, 100, 500, 2000} {
		if got, want := acc.Rank(v), ref.Rank(v); got != want {
			t.Errorf("rank(%v): acc %v != ref %v", v, got, want)
		}
	}
}

func TestAccumulatorResetReuse(t *testing.T) {
	// One accumulator reused across 100 independent queries must answer each
	// exactly like a fresh accumulator: Reset leaves no residue.
	acc := NewAccumulator()
	for q := 0; q < 100; q++ {
		vals := make([]float64, 50+q)
		for i := range vals {
			vals[i] = float64(i * (q + 1))
		}
		s := buildSummary(t, 128, int64(q+1), vals)

		acc.Reset()
		acc.Merge(s)
		fresh := NewAccumulator()
		fresh.Merge(s)

		if acc.N() != fresh.N() || acc.N() != uint64(len(vals)) {
			t.Fatalf("query %d: reused N %d, fresh N %d, want %d", q, acc.N(), fresh.N(), len(vals))
		}
		for _, phi := range []float64{0.01, 0.5, 0.99} {
			if acc.Quantile(phi) != fresh.Quantile(phi) {
				t.Fatalf("query %d phi=%v: reused %v != fresh %v",
					q, phi, acc.Quantile(phi), fresh.Quantile(phi))
			}
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator()
	if acc.N() != 0 {
		t.Errorf("empty N = %d", acc.N())
	}
	if !math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) || !math.IsNaN(acc.Quantile(0.5)) {
		t.Error("empty accumulator queries must return NaN")
	}
	if s := acc.Summary(); s.N() != 0 {
		t.Errorf("empty Summary N = %d", s.N())
	}
	acc.Merge(nil)        // nil summary is a no-op
	acc.Merge(&Summary{}) // empty summary is a no-op
	if acc.N() != 0 {
		t.Error("no-op merges changed the accumulator")
	}
}

func TestAccumulatorSummaryDetached(t *testing.T) {
	// The Summary() copy must stay valid after the accumulator is reused —
	// that is the contract that makes pooling the accumulator safe.
	s1 := buildSummary(t, 64, 1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s2 := buildSummary(t, 64, 2, []float64{100, 200, 300})
	acc := NewAccumulator()
	acc.Merge(s1)
	snap := acc.Summary()
	wantN, wantMed := snap.N(), snap.Quantile(0.5)

	acc.Reset()
	acc.Merge(s2) // reuse overwrites the accumulator's internal buffers

	if snap.N() != wantN || snap.Quantile(0.5) != wantMed {
		t.Errorf("detached summary changed after accumulator reuse: N %d→%d, median %v→%v",
			wantN, snap.N(), wantMed, snap.Quantile(0.5))
	}
}
