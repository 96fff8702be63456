package countmin

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"fastsketches/internal/core"
)

// zipf draws n keys from a Zipf distribution with exponent s over
// [0, domain): a heavy-hitter stream with many duplicates.
func zipf(n int, domain uint64, s float64, seed int64) []uint64 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, domain-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

func TestNeverUnderestimates(t *testing.T) {
	s := New(256, 4, 9001)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(5000))
		s.Update(k)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("key %d underestimated: %d < %d", k, got, want)
		}
	}
}

func TestErrorBoundHolds(t *testing.T) {
	// With w=⌈e/ε⌉ the additive error is ≤ ε·N w.p. ≥ 1−e^−d per key;
	// check the overwhelming majority of keys on a Zipf stream.
	s := NewWithError(0.005, 0.01, 9001)
	keys := zipf(200000, 10000, 1.3, 2)
	truth := map[uint64]uint64{}
	for _, k := range keys {
		s.Update(k)
		truth[k]++
	}
	bound := uint64(math.Ceil(s.ErrorBound()))
	bad := 0
	for k, want := range truth {
		if got := s.Estimate(k); got > want+bound {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.01 {
		t.Errorf("%.3f%% of keys exceeded the ε·N bound (δ=1%%)", frac*100)
	}
}

func TestExactWhenNoCollisions(t *testing.T) {
	// Few keys, wide sketch → whp no collisions → exact counts.
	s := New(1<<16, 4, 9001)
	for i := 0; i < 100; i++ {
		for j := 0; j <= i; j++ {
			s.Update(uint64(i))
		}
	}
	for i := 0; i < 100; i++ {
		if got := s.Estimate(uint64(i)); got != uint64(i+1) {
			t.Fatalf("key %d: got %d, want %d", i, got, i+1)
		}
	}
}

func TestUnseenKeySmall(t *testing.T) {
	s := New(4096, 5, 9001)
	for i := 0; i < 10000; i++ {
		s.Update(uint64(i))
	}
	// An unseen key's estimate is pure collision noise ≤ ε·N whp.
	if got := s.Estimate(1 << 60); float64(got) > 3*s.ErrorBound()+1 {
		t.Errorf("unseen key estimate %d too large", got)
	}
}

func TestWeightedAdd(t *testing.T) {
	s := New(1024, 4, 9001)
	s.Add(7, 1000)
	s.Add(7, 234)
	if got := s.Estimate(7); got != 1234 {
		t.Fatalf("weighted estimate %d, want 1234", got)
	}
	if s.N() != 1234 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestMergeEquivalentToConcatenation(t *testing.T) {
	a := New(512, 4, 9001)
	b := New(512, 4, 9001)
	whole := New(512, 4, 9001)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(2000))
		whole.Update(k)
		if i%2 == 0 {
			a.Update(k)
		} else {
			b.Update(k)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N %d != %d", a.N(), whole.N())
	}
	for k := uint64(0); k < 2000; k += 37 {
		if a.Estimate(k) != whole.Estimate(k) {
			t.Fatalf("key %d: merged %d != whole %d", k, a.Estimate(k), whole.Estimate(k))
		}
	}
}

func TestMergeMismatchPanics(t *testing.T) {
	for name, other := range map[string]*Sketch{
		"width": New(128, 4, 9001),
		"depth": New(256, 5, 9001),
		"seed":  New(256, 4, 1),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			New(256, 4, 9001).Merge(other)
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 4, 1) },
		func() { New(4, 0, 1) },
		func() { NewWithError(0, 0.5, 1) },
		func() { NewWithError(0.5, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPropertyMonotoneInUpdates(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	f := func(keys []uint64, probe uint64) bool {
		s := New(64, 3, 9001)
		prev := s.Estimate(probe)
		for _, k := range keys {
			s.Update(k)
			cur := s.Estimate(probe)
			if cur < prev {
				return false // estimates can only grow
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	s := New(64, 3, 9001)
	for i := 0; i < 1000; i++ {
		s.Update(uint64(i % 10))
	}
	s.Reset()
	if s.N() != 0 || s.Estimate(3) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestComposableUnderFramework(t *testing.T) {
	comp := NewComposable(2048, 4, 9001)
	fw := core.New[uint64](comp, core.Config{Workers: 2, BufferSize: 32, MaxError: 1})
	fw.Start()
	const n = 1 << 17
	keys := zipf(n, 1000, 1.4, 7)
	truth := map[uint64]uint64{}
	for _, k := range keys {
		truth[k]++
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fw.Update(w, keys[i])
			}
		}(w)
	}
	// Live queries: estimates must never exceed truth + bound nor behave
	// wildly; undercounting is allowed (relaxation).
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
			if comp.Estimate(keys[0]) > uint64(n) {
				t.Error("estimate exceeds stream length")
				return
			}
			runtime.Gosched() // don't starve writers on small machines
		}
	}()
	wg.Wait()
	close(stop)
	qwg.Wait()
	fw.Close()
	if comp.N() != n {
		t.Fatalf("merged weight %d, want %d", comp.N(), n)
	}
	snap := comp.Snapshot()
	bound := uint64(math.Ceil(snap.ErrorBound()))
	for k, want := range truth {
		got := snap.Estimate(k)
		if got < want {
			t.Fatalf("key %d underestimated after close: %d < %d", k, got, want)
		}
		if got > want+3*bound+1 {
			t.Fatalf("key %d overestimated beyond bound: %d > %d+%d", k, got, want, 3*bound)
		}
	}
}

func BenchmarkUpdate(b *testing.B) {
	s := New(4096, 4, 9001)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i & 1023))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(4096, 4, 9001)
	for i := 0; i < 1<<20; i++ {
		s.Update(uint64(i & 1023))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Estimate(uint64(i & 1023))
	}
	_ = sink
}

func TestSnapshotMergeEqualsSequential(t *testing.T) {
	// Folding k shard composables into an accumulator must equal the
	// sequential sketch over the concatenated streams exactly: Count-Min
	// merging is element-wise counter addition, which is lossless.
	cases := []struct {
		name     string
		shards   int
		perShard int
		width    int
		depth    int
	}{
		{"1-shard", 1, 5000, 256, 4},
		{"2-shard", 2, 5000, 256, 4},
		{"4-shard skewed", 4, 20000, 128, 5},
		{"8-shard", 8, 3000, 512, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := New(tc.width, tc.depth, 9001)
			acc := New(tc.width, tc.depth, 9001)
			for s := 0; s < tc.shards; s++ {
				c := NewComposable(tc.width, tc.depth, 9001)
				keys := make([]uint64, tc.perShard)
				for i := range keys {
					// Zipf-ish skew: low keys repeat often.
					keys[i] = uint64(i % (7 + s*13))
					seq.Update(keys[i])
				}
				c.MergeBuffer(keys)
				c.SnapshotMergeInto(acc)
			}
			if acc.N() != seq.N() {
				t.Fatalf("merged N %d != sequential %d", acc.N(), seq.N())
			}
			for key := uint64(0); key < 200; key++ {
				if got, want := acc.Estimate(key), seq.Estimate(key); got != want {
					t.Fatalf("key %d: merged estimate %d != sequential %d", key, got, want)
				}
			}
		})
	}
}

func TestSnapshotMergeDimensionMismatchPanics(t *testing.T) {
	c := NewComposable(128, 4, 9001)
	for _, acc := range []*Sketch{New(64, 4, 9001), New(128, 3, 9001), New(128, 4, 1234)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched SnapshotMergeInto must panic")
				}
			}()
			c.SnapshotMergeInto(acc)
		}()
	}
}
