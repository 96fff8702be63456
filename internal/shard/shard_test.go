package shard_test

import (
	"math"
	"sync"
	"testing"

	"fastsketches/internal/core"
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
)

// feedTheta drives n distinct keys through w writer goroutines.
func feedTheta(t *shard.Theta, writers, n int) {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/writers; i++ {
				t.Update(w, base+uint64(i))
			}
		}(w)
	}
	wg.Wait()
}

func TestConfigValidation(t *testing.T) {
	bad := []shard.Config{
		{Shards: -1},
		{Writers: -2},
		{BufferSize: -1},
		{MaxError: -0.5},
	}
	for _, cfg := range bad {
		if _, err := shard.NewTheta(12, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// Zero value fills defaults.
	sk, err := shard.NewTheta(12, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	if sk.Shards() != shard.DefaultShards {
		t.Errorf("default shards = %d, want %d", sk.Shards(), shard.DefaultShards)
	}
}

func TestThetaExactAfterClose(t *testing.T) {
	// With n < k per shard everything stays in exact mode: after Close the
	// merged estimate must equal n precisely — routing lost nothing and the
	// union double-counted nothing.
	const writers, n = 4, 3000
	sk, err := shard.NewTheta(12, shard.Config{Shards: 4, Writers: writers, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	feedTheta(sk, writers, n)
	sk.Close()
	if est := sk.Estimate(); est != n {
		t.Errorf("merged estimate after close = %v, want exactly %d", est, n)
	}
}

func TestThetaAccuracyLargeStream(t *testing.T) {
	const writers, n = 4, 1 << 20
	sk, err := shard.NewTheta(12, shard.Config{Shards: 8, Writers: writers, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	feedTheta(sk, writers, n)
	sk.Close()
	// Each shard samples its own substream; the union's error is governed by
	// the per-shard k. Allow a few combined RSE.
	re := sk.Estimate()/float64(n) - 1
	if math.Abs(re) > 5*theta.RSEBound(4096) {
		t.Errorf("sharded estimate error %.4f exceeds 5·RSE", re)
	}
}

func TestThetaSameKeySameShard(t *testing.T) {
	// Feeding the same key many times must count once: duplicates route to
	// one shard and the union never double-counts across shards.
	sk, err := shard.NewTheta(12, shard.Config{Shards: 8, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		sk.Update(0, uint64(i%100))
	}
	sk.Close()
	if est := sk.Estimate(); est != 100 {
		t.Errorf("estimate %v, want exactly 100 distinct", est)
	}
}

func TestThetaRelaxationAccounting(t *testing.T) {
	sk, err := shard.NewTheta(12, shard.Config{
		Shards: 4, Writers: 3, BufferSize: 8, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	if got, want := sk.Relaxation(), 4*2*3*8; got != want {
		t.Errorf("combined relaxation %d, want S·2·N·b = %d", got, want)
	}
}

func TestThetaMergedSketch(t *testing.T) {
	sk, err := shard.NewTheta(12, shard.Config{Shards: 4, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sk.Update(0, uint64(i))
	}
	sk.Close()
	m := sk.Merged()
	if m.Estimate() != 2000 {
		t.Errorf("merged standalone sketch estimate %v, want 2000", m.Estimate())
	}
}

func TestHLLShardedMatchesSequentialUnion(t *testing.T) {
	// Register-max union is lossless: the sharded HLL after Close must give
	// exactly the estimate of a sequential HLL over the same stream.
	const n = 1 << 17
	sk, err := shard.NewHLL(12, shard.Config{Shards: 4, Writers: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := hll.New(12, murmur.DefaultSeed)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/2; i++ {
				sk.Update(w, base+uint64(i))
			}
		}(w)
	}
	wg.Wait()
	sk.Close()
	for w := 0; w < 2; w++ {
		base := uint64(w) << 40
		for i := 0; i < n/2; i++ {
			seq.Update(base + uint64(i))
		}
	}
	if got, want := sk.Estimate(), seq.Estimate(); got != want {
		t.Errorf("sharded HLL %v != sequential %v", got, want)
	}
	re := sk.Estimate()/float64(n) - 1
	if math.Abs(re) > 4*hll.RSEBound(12) {
		t.Errorf("sharded HLL error %.4f exceeds 4·RSE", re)
	}
}

func TestQuantilesShardedRankBound(t *testing.T) {
	// Stream 0..n-1 through 2 writers; after Close the merged summary must
	// answer quantile queries within the per-shard epsilon.
	const n = 1 << 16
	const k = 128
	sk, err := shard.NewQuantiles(k, shard.Config{Shards: 4, Writers: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				sk.Update(w, float64(i))
			}
		}(w)
	}
	wg.Wait()
	sk.Close()
	if got := sk.N(); got != n {
		t.Fatalf("merged N = %d, want %d", got, n)
	}
	s := sk.Summary()
	if s.Min() != 0 || s.Max() != n-1 {
		t.Errorf("merged min/max = %v/%v, want 0/%d", s.Min(), s.Max(), n-1)
	}
	eps := quantiles.EpsilonBound(k, n)
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		v := s.Quantile(phi)
		if dev := math.Abs(v/float64(n) - phi); dev > eps+1.0/float64(n) {
			t.Errorf("phi=%v: merged quantile %v deviates %.4f > eps %.4f", phi, v, dev, eps)
		}
	}
	// Rank must be monotone and consistent with Quantile.
	if r := s.Rank(float64(n) / 2); math.Abs(r-0.5) > eps+1.0/float64(n) {
		t.Errorf("rank(n/2) = %v, want ≈0.5", r)
	}
}

func TestCountMinPerKeyExactNoCollisions(t *testing.T) {
	// Few keys, wide sketch → no collisions: after Close every per-key
	// estimate equals the true count, and N sums across shards.
	const keys, reps = 50, 200
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{Shards: 4, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < reps; rep++ {
		for k := uint64(0); k < keys; k++ {
			sk.Update(0, k)
		}
	}
	sk.Close()
	if got := sk.N(); got != keys*reps {
		t.Errorf("total N = %d, want %d", got, keys*reps)
	}
	for k := uint64(0); k < keys; k++ {
		if got := sk.Estimate(k); got != reps {
			t.Errorf("key %d estimate %d, want %d", k, got, reps)
		}
	}
	// The merged sketch agrees.
	m := sk.Merged()
	if m.N() != keys*reps {
		t.Errorf("merged N = %d, want %d", m.N(), keys*reps)
	}
	for k := uint64(0); k < keys; k++ {
		if got := m.Estimate(k); got != reps {
			t.Errorf("merged key %d estimate %d, want %d", k, got, reps)
		}
	}
}

func TestCountMinShardRelaxationTighter(t *testing.T) {
	sk, err := shard.NewCountMin(0.01, 0.01, shard.Config{
		Shards: 8, Writers: 2, BufferSize: 4, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	if got, want := sk.ShardRelaxation(), 2*2*4; got != want {
		t.Errorf("per-shard relaxation %d, want 2·N·b = %d", got, want)
	}
	if got, want := sk.Relaxation(), 8*2*2*4; got != want {
		t.Errorf("combined relaxation %d, want S·2·N·b = %d", got, want)
	}
}

func TestEagerPhaseMergedQueriesExact(t *testing.T) {
	// While every shard is eager, each completed update is immediately
	// visible in merged queries: interleaved query-after-update must count
	// exactly. Keys are distinct and far below k so Θ stays exact too.
	sk, err := shard.NewTheta(12, shard.Config{Shards: 4, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	for i := 0; i < 1000; i++ {
		sk.Update(0, uint64(i))
		if !sk.Eager() {
			t.Fatalf("left eager phase after only %d updates (limit is 2/e² per shard)", i+1)
		}
		if est := sk.Estimate(); est != float64(i+1) {
			t.Fatalf("eager merged estimate after %d updates = %v, want exact", i+1, est)
		}
	}
}

func TestShardsIndependentEagerSwitch(t *testing.T) {
	// Pushing one shard past its eager limit must not force others lazy:
	// route many copies of a single key (one shard) and verify Eager() goes
	// false only once that shard's substream exceeds 2/e².
	sk, err := shard.NewCountMin(0.01, 0.01, shard.Config{Shards: 4, MaxError: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	limit := core.DeriveEagerLimit(0.1) // ≈ 2/e² per shard
	for i := 0; i < limit-1; i++ {
		sk.Update(0, 42)
	}
	if !sk.Eager() {
		t.Error("all shards should still be eager below the per-shard limit")
	}
	for i := 0; i < limit; i++ {
		sk.Update(0, 42)
	}
	if sk.Eager() {
		t.Error("the loaded shard should have switched to lazy")
	}
}
