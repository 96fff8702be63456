package fastsketches_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fastsketches"
	"fastsketches/internal/theta"
)

// ingest runs one goroutine per writer lane, lane w feeding the indices
// i ≡ w (mod writers) of [0, n) to update, and waits for all of them.
func ingest(writers, n int, update func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += writers {
				update(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// TestSingleShard drives each family as the paper's object — one
// concurrent sketch, a registry handle at S=1 — through concurrent ingest
// and checks the drained answers.
func TestSingleShard(t *testing.T) {
	single := func(t *testing.T, writers int, maxErr float64) *fastsketches.Registry {
		return openRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: writers, MaxError: maxErr})
	}
	t.Run("theta", func(t *testing.T) {
		reg := single(t, 4, 0.04)
		sk := openTheta(t, reg, "t").Sketch()
		const n = 1 << 19
		ingest(4, n, func(w, i int) { sk.Update(w, uint64(i)) })
		reg.Close()
		if re := sk.Estimate()/n - 1; math.Abs(re) > 4*theta.RSEBound(4096) {
			t.Errorf("estimate error %.4f out of tolerance", re)
		}
		if lo, hi := sk.ConfidenceBounds(2); lo > n || hi < n {
			t.Errorf("2σ bounds [%v,%v] exclude truth %d", lo, hi, n)
		}
	})
	t.Run("theta-defaults", func(t *testing.T) {
		reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1})
		h := openTheta(t, reg, "t")
		if inf, _ := h.Info(); inf.Writers != 1 || h.Relaxation() <= 0 {
			t.Errorf("defaults: writers %d, relaxation %d; want 1 and > 0", inf.Writers, h.Relaxation())
		}
		h.Update(0, 1)
		h.Sketch().UpdateString(0, "two")
		h.Sketch().UpdateString(0, "three")
		if est := h.Sketch().Estimate(); est != 3 {
			t.Errorf("eager-phase estimate %v, want 3", est)
		}
	})
	t.Run("hll", func(t *testing.T) {
		reg := single(t, 2, 1)
		sk := openHLL(t, reg, "h").Sketch()
		const n = 1 << 17
		ingest(2, n, func(w, i int) { sk.Update(w, uint64(i)) })
		reg.Close()
		if re := sk.Estimate()/n - 1; math.Abs(re) > 0.07 {
			t.Errorf("HLL estimate error %.4f", re)
		}
	})
	t.Run("quantiles", func(t *testing.T) {
		reg := single(t, 2, 1)
		q := openQuantiles(t, reg, "q").Sketch()
		const n = 1 << 16
		ingest(2, n, func(w, i int) { q.Update(w, float64(i)) })
		reg.Close()
		if q.N() != n {
			t.Fatalf("N = %d, want %d", q.N(), n)
		}
		if med := q.Quantile(0.5); math.Abs(med/n-0.5) > 0.05 {
			t.Errorf("median %v, want ≈%v", med, n/2)
		}
		if r := q.Rank(n / 4); math.Abs(r-0.25) > 0.05 {
			t.Errorf("rank %v, want ≈0.25", r)
		}
	})
	t.Run("countmin", func(t *testing.T) {
		reg := single(t, 2, 1)
		cm := openCountMin(t, reg, "c").Sketch()
		const n = 1 << 16
		z := rand.NewZipf(rand.New(rand.NewSource(11)), 1.5, 1, 499)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = z.Uint64()
		}
		truth := map[uint64]uint64{}
		for _, k := range keys {
			truth[k]++
		}
		ingest(2, n, func(w, i int) { cm.Update(w, keys[i]) })
		reg.Close()
		if cm.N() != n {
			t.Fatalf("N = %d, want %d", cm.N(), n)
		}
		bound := uint64(n*3/1000) + 1 // 3ε·N
		for k, want := range truth {
			if got := cm.Estimate(k); got < want || got > want+bound {
				t.Fatalf("key %d: estimate %d outside [%d, %d+3ε·N]", k, got, want, want)
			}
		}
	})
	t.Run("countmin-strings", func(t *testing.T) {
		reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1})
		cm := openCountMin(t, reg, "c").Sketch()
		for i := 0; i < 100; i++ {
			cm.UpdateString(0, "alpha")
			if i%2 == 0 {
				cm.UpdateString(0, "beta")
			}
		}
		reg.Close()
		if a, b, u := cm.EstimateString("alpha"), cm.EstimateString("beta"), cm.EstimateString("never-seen"); a != 100 || b != 50 || u > 2 {
			t.Errorf("alpha=%d beta=%d unseen=%d, want 100, 50, ≈0", a, b, u)
		}
	})
}

func TestResultSetOperations(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1, MaxError: 1})
	a, b := openTheta(t, reg, "a"), openTheta(t, reg, "b")
	for i := 0; i < 60000; i++ {
		a.Update(0, uint64(i))
		b.Update(0, uint64(i+30000))
	}
	reg.Close()
	ra, rb := a.Sketch().Merged(), b.Sketch().Merged()
	if inter := fastsketches.ThetaIntersect(ra, rb); math.Abs(inter.Estimate()/30000-1) > 0.2 {
		t.Errorf("intersection %v, want ≈30000", inter.Estimate())
	}
	if diff := fastsketches.ThetaAnotB(ra, rb); math.Abs(diff.Estimate()/30000-1) > 0.2 {
		t.Errorf("difference %v, want ≈30000", diff.Estimate())
	}
	u := fastsketches.ThetaUnion(12, 0)
	u.Add(ra)
	u.Add(rb)
	if math.Abs(u.Estimate()/90000-1) > 0.1 {
		t.Errorf("union %v, want ≈90000", u.Estimate())
	}
}

func TestSequentialReExports(t *testing.T) {
	qs := fastsketches.NewThetaSketch(10, 0)
	for i := 0; i < 50000; i++ {
		qs.Update(uint64(i))
	}
	if est := qs.Estimate(); math.Abs(est/50000-1) > 0.15 {
		t.Errorf("QuickSelect estimate %v, want ≈50000", est)
	}
	q := fastsketches.NewQuantilesSketch(64)
	for i := 0; i < 10000; i++ {
		q.Update(float64(i))
	}
	if med := q.Quantile(0.5); math.Abs(med/10000-0.5) > 0.1 {
		t.Errorf("median %v", med)
	}
	h := fastsketches.NewHLLSketch(10, 0)
	for i := 0; i < 10000; i++ {
		h.Update(uint64(i))
	}
	if est := h.Estimate(); math.Abs(est/10000-1) > 0.15 {
		t.Errorf("HLL estimate %v", est)
	}
}

// TestLiveQueriesWhileIngesting: the headline feature — queries while
// building, never blocking, never running ahead of the stream.
func TestLiveQueriesWhileIngesting(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 2})
	sk := openTheta(t, reg, "live").Sketch()
	const n = 400000
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if est := sk.Estimate(); est < 0 || est > 1.1*n {
				t.Errorf("live estimate %v outside [0, 1.1·%d]", est, n)
				return
			}
		}
	}()
	ingest(2, n, func(w, i int) { sk.Update(w, uint64(i)) })
	close(stop)
	qwg.Wait()
}
