package quantiles

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestSummaryEmpty(t *testing.T) {
	c := NewComposable(64, NewRandomBits(1))
	s := c.Snapshot()
	if s.N() != 0 {
		t.Error("empty snapshot N should be 0")
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Rank(1)) {
		t.Error("empty snapshot queries should be NaN")
	}
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty snapshot min/max should be NaN")
	}
}

func TestSummaryMatchesGadget(t *testing.T) {
	c := NewComposable(128, NewRandomBits(2))
	var batch []float64
	for i := 0; i < 50000; i++ {
		batch = append(batch, float64(i))
		if len(batch) == 100 {
			c.MergeBuffer(batch)
			batch = batch[:0]
		}
	}
	// The snapshot API contract: immediately after publication, snapshot
	// queries equal gadget queries for every argument.
	s := c.Snapshot()
	for _, phi := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
		if got, want := s.Quantile(phi), c.Gadget().Quantile(phi); got != want {
			t.Errorf("phi=%v: snapshot %v != gadget %v", phi, got, want)
		}
	}
	for _, v := range []float64{-1, 0, 100, 25000, 49999, 60000} {
		if got, want := s.Rank(v), c.Gadget().Rank(v); got != want {
			t.Errorf("rank(%v): snapshot %v != gadget %v", v, got, want)
		}
	}
}

func TestSummaryImmutableUnderLaterMerges(t *testing.T) {
	c := NewComposable(32, NewRandomBits(3))
	first := make([]float64, 1000)
	for i := range first {
		first[i] = float64(i)
	}
	c.MergeBuffer(first)
	snap := c.Snapshot()
	medBefore := snap.Quantile(0.5)
	nBefore := snap.N()

	second := make([]float64, 1000)
	for i := range second {
		second[i] = float64(i + 100000)
	}
	c.MergeBuffer(second)

	if snap.Quantile(0.5) != medBefore || snap.N() != nBefore {
		t.Error("published snapshot mutated by a later merge")
	}
	if c.Snapshot().N() != 2000 {
		t.Error("new snapshot missing second batch")
	}
}

func TestSummaryRankQuantileInverse(t *testing.T) {
	c := NewComposable(128, NewRandomBits(4))
	vals := make([]float64, 1<<15)
	for i := range vals {
		vals[i] = float64(i)
	}
	c.MergeBuffer(vals)
	s := c.Snapshot()
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		v := s.Quantile(phi)
		r := s.Rank(v)
		if math.Abs(r-phi) > EpsilonBound(128, s.N())+1.0/float64(s.N()) {
			t.Errorf("phi=%v: rank(quantile)=%v", phi, r)
		}
	}
}

func TestComposableConcurrentSnapshotStress(t *testing.T) {
	c := NewComposable(64, NewRandomBits(5))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Snapshot()
				if s.N() == 0 {
					continue
				}
				med := s.Quantile(0.5)
				if med < s.Min() || med > s.Max() {
					t.Error("snapshot internally inconsistent")
					return
				}
			}
		}()
	}
	var batch []float64
	for i := 0; i < 100000; i++ {
		batch = append(batch, float64(i%1000))
		if len(batch) == 64 {
			c.MergeBuffer(batch)
			batch = batch[:0]
		}
	}
	close(stop)
	readers.Wait()
}

func TestComposableTrivialHint(t *testing.T) {
	c := NewComposable(16, nil)
	if c.CalcHint() != 1 {
		t.Error("quantiles hint should be the trivial constant 1")
	}
	if !c.ShouldAdd(1, 42.0) {
		t.Error("quantiles shouldAdd must always accept")
	}
}

func TestSnapshotMergeEqualsSequential(t *testing.T) {
	// Folding k shard summaries must answer rank/quantile queries over the
	// concatenated streams within the sketch's documented epsilon: merging
	// summaries is exact (weights and order preserved), so the only error is
	// each shard's own summarisation error.
	cases := []struct {
		name     string
		shards   int
		perShard int
		k        int
	}{
		{"1-shard exact", 1, 100, 128}, // fits base buffer: eps = 0
		{"2-shard small", 2, 5000, 128},
		{"4-shard", 4, 20000, 128},
		{"8-shard", 8, 10000, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.shards * tc.perShard
			// Stream 0..n-1 dealt round-robin across shards, so each shard
			// sees an interleaved slice and the true rank of value v is v/n.
			comps := make([]*Composable, tc.shards)
			for s := range comps {
				comps[s] = NewComposable(tc.k, NewRandomBits(int64(s+1)))
			}
			batches := make([][]float64, tc.shards)
			for v := 0; v < n; v++ {
				s := v % tc.shards
				batches[s] = append(batches[s], float64(v))
			}
			acc := NewAccumulator()
			for s, c := range comps {
				c.MergeBuffer(batches[s])
				c.SnapshotMergeInto(acc)
			}
			if acc.N() != uint64(n) {
				t.Fatalf("merged N %d != %d", acc.N(), n)
			}
			if acc.Min() != 0 || acc.Max() != float64(n-1) {
				t.Fatalf("merged min/max %v/%v want 0/%d", acc.Min(), acc.Max(), n-1)
			}
			// Per-shard eps bounds the merged rank error (weighted combination
			// of the shards' errors can't exceed the worst shard's eps).
			eps := EpsilonBound(tc.k, uint64(tc.perShard))
			if eps == 0 && tc.shards > 1 {
				eps = EpsilonBound(tc.k, uint64(n))
			}
			// ±1/n slack for the discretisation of integer-valued streams.
			slack := 1/float64(n) + 1e-12
			for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				got := acc.Quantile(phi)
				trueRank := got / float64(n)
				if dev := math.Abs(trueRank - phi); dev > eps+slack {
					t.Errorf("phi=%v: merged quantile %v has rank dev %.4f > eps %.4f",
						phi, got, dev, eps)
				}
			}
		})
	}
}

func TestMergeSummariesProperties(t *testing.T) {
	// Edge cases: nil/empty operands, and cum weights strictly increasing.
	c := NewComposable(64, NewRandomBits(3))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	c.MergeBuffer(vals)
	s := c.Snapshot()
	if got := MergeSummaries(nil, nil); got.N() != 0 {
		t.Error("nil merge should be empty")
	}
	if got := MergeSummaries(nil, s); got != s {
		t.Error("nil ⊕ s should return s unchanged")
	}
	if got := MergeSummaries(s, nil); got != s {
		t.Error("s ⊕ nil should return s unchanged")
	}
	m := MergeSummaries(s, s) // self-merge: doubled weights
	if m.N() != 2*s.N() {
		t.Errorf("self-merge N %d, want %d", m.N(), 2*s.N())
	}
	last := 0.0
	for i := 0; i < len(m.values); i++ {
		if m.cum[i] <= last {
			t.Fatalf("cum not strictly increasing at %d", i)
		}
		last = m.cum[i]
	}
	if m.cum[len(m.cum)-1] != float64(m.N()) {
		t.Errorf("total cum weight %v != N %d", m.cum[len(m.cum)-1], m.N())
	}
}

// gatherSummary is the reference publication: the gadget's retained items
// gathered and sorted with cumulative weights.
func gatherSummary(s *Sketch) *Summary {
	items := s.gather()
	out := &Summary{
		values: make([]float64, len(items)),
		cum:    make([]float64, len(items)),
		n:      s.n,
		min:    s.min,
		max:    s.max,
	}
	var cum float64
	for i, it := range items {
		cum += float64(it.weight)
		out.values[i], out.cum[i] = it.value, cum
	}
	return out
}

func TestPublishedSummaryMatchesGather(t *testing.T) {
	// The composable publishes by merging a cached level run with a sorted
	// copy of the base; after every publication, on buffers that straddle
	// compactions, the summary must be the one gather builds. Distinct
	// values make that summary unique, so it is compared field for field.
	// gather's sort is unstable on ties, so a tie-heavy stream compares only
	// the answers, which do not depend on the order of equal values.
	const k, items = 16, 8000
	r := rand.New(rand.NewSource(7))
	distinct := make([]float64, items)
	for i, p := range r.Perm(items) {
		distinct[i] = float64(p) + 0.5
	}
	ties := make([]float64, items)
	for i := range ties {
		ties[i] = float64(r.Intn(37))
	}
	phis := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	check := func(t *testing.T, step int, got, want *Summary, exact bool) {
		t.Helper()
		if got.n != want.n || got.min != want.min || got.max != want.max {
			t.Fatalf("step %d: n/min/max %d/%v/%v, gather %d/%v/%v",
				step, got.n, got.min, got.max, want.n, want.min, want.max)
		}
		if exact {
			if !slices.Equal(got.values, want.values) || !slices.Equal(got.cum, want.cum) {
				t.Fatalf("step %d: published summary differs from gather's", step)
			}
			return
		}
		for _, phi := range phis {
			if g, w := got.Quantile(phi), want.Quantile(phi); g != w {
				t.Fatalf("step %d: quantile(%v) %v, gather %v", step, phi, g, w)
			}
		}
		for v := -1.0; v <= 37; v += 0.5 {
			if g, w := got.Rank(v), want.Rank(v); g != w {
				t.Fatalf("step %d: rank(%v) %v, gather %v", step, v, g, w)
			}
		}
	}
	for _, stream := range []struct {
		name   string
		values []float64
	}{{"distinct", distinct}, {"ties", ties}} {
		for _, size := range []int{0, 1, 63, 64, 257, 1000} { // 0: DirectUpdate
			name := fmt.Sprintf("%s/b=%d", stream.name, size)
			if size == 0 {
				name = stream.name + "/direct"
			}
			t.Run(name, func(t *testing.T) {
				c := NewComposable(k, NewRandomBits(int64(size)))
				vs, step := stream.values, 0
				for len(vs) > 0 {
					if size == 0 {
						c.DirectUpdate(vs[0])
						vs = vs[1:]
					} else {
						n := min(size, len(vs))
						c.MergeBuffer(vs[:n])
						vs = vs[n:]
					}
					check(t, step, c.Snapshot(), gatherSummary(c.gadget), stream.name == "distinct")
					step++
				}
				if c.gadget.n/(2*k) < 100 {
					t.Fatalf("only %d compactions", c.gadget.n/(2*k))
				}
			})
		}
	}
}

// BenchmarkComposableMergeBuffer times the propagator's merge-and-publish of
// one 64-item buffer into a k=128 composable that has already absorbed 2^20
// items, so the levels are deep and every buffer republishes a full summary.
func BenchmarkComposableMergeBuffer(b *testing.B) {
	const k, bufSize, warm = 128, 64, 1 << 20
	r := rand.New(rand.NewSource(1))
	stream := make([]float64, 1<<16)
	for i := range stream {
		stream[i] = r.Float64()
	}
	c := NewComposable(k, NewRandomBits(1))
	off := 0
	next := func() []float64 {
		buf := stream[off : off+bufSize]
		off = (off + bufSize) % len(stream)
		return buf
	}
	for i := 0; i < warm; i += bufSize {
		c.MergeBuffer(next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MergeBuffer(next())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bufSize), "ns/item")
}
