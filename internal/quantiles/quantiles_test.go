package quantiles

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func feedSequential(s *Sketch, n int) {
	for i := 0; i < n; i++ {
		s.Update(float64(i))
	}
}

func trueRankOfValue(v float64, n int) float64 {
	// For the stream 0..n-1, the number of items < v is clamp(ceil(v), 0, n).
	below := math.Ceil(v)
	if below < 0 {
		below = 0
	}
	if below > float64(n) {
		below = float64(n)
	}
	return below / float64(n)
}

func TestEmpty(t *testing.T) {
	s := New(128, nil)
	if !s.IsEmpty() || s.N() != 0 {
		t.Fatal("new sketch not empty")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("quantile of empty sketch should be NaN")
	}
	if !math.IsNaN(s.Rank(1.0)) {
		t.Error("rank of empty sketch should be NaN")
	}
}

func TestSmallStreamExact(t *testing.T) {
	// While everything fits in the base buffer the sketch is exact.
	s := New(128, nil)
	vals := []float64{5, 1, 9, 3, 7}
	for _, v := range vals {
		s.Update(v)
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 1/9", s.Min(), s.Max())
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestMinMaxExactAlways(t *testing.T) {
	s := New(32, nil)
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		v := rng.NormFloat64() * 100
		s.Update(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if s.Min() != lo || s.Max() != hi {
		t.Fatalf("min/max drifted: got %v/%v want %v/%v", s.Min(), s.Max(), lo, hi)
	}
}

func TestNCounting(t *testing.T) {
	s := New(64, nil)
	feedSequential(s, 123457)
	if s.N() != 123457 {
		t.Fatalf("N = %d, want 123457", s.N())
	}
}

func TestRankAccuracySequentialStream(t *testing.T) {
	const k, n = 128, 1 << 17
	s := New(k, NewRandomBits(7))
	feedSequential(s, n)
	eps := EpsilonBound(k, uint64(n))
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := s.Quantile(phi)
		r := trueRankOfValue(v, n)
		if math.Abs(r-phi) > eps {
			t.Errorf("phi=%.2f: returned value %v has true rank %.4f (|Δ|=%.4f > ε=%.4f)",
				phi, v, r, math.Abs(r-phi), eps)
		}
	}
}

func TestRankAccuracyRandomOrder(t *testing.T) {
	const k, n = 128, 1 << 16
	s := New(k, NewRandomBits(11))
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, v := range perm {
		s.Update(float64(v))
	}
	eps := EpsilonBound(k, uint64(n))
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		v := s.Quantile(phi)
		r := trueRankOfValue(v, n)
		if math.Abs(r-phi) > eps {
			t.Errorf("phi=%.2f: rank error %.4f exceeds ε=%.4f", phi, math.Abs(r-phi), eps)
		}
	}
}

func TestRankAndQuantileConsistent(t *testing.T) {
	const k, n = 128, 1 << 15
	s := New(k, NewRandomBits(13))
	feedSequential(s, n)
	eps := EpsilonBound(k, uint64(n))
	for _, phi := range []float64{0.2, 0.5, 0.8} {
		v := s.Quantile(phi)
		r := s.Rank(v)
		// Rank(Quantile(φ)) should be within the sketch's own ε of φ: both
		// directions consult the same retained summary.
		if math.Abs(r-phi) > eps {
			t.Errorf("phi=%.2f: sketch-rank of own quantile = %.4f", phi, r)
		}
	}
}

func TestQuantilesBatchMatchesSingle(t *testing.T) {
	s := New(64, NewRandomBits(17))
	feedSequential(s, 50000)
	phis := []float64{0, 0.1, 0.5, 0.9, 1}
	batch := s.Quantiles(phis)
	for i, phi := range phis {
		if single := s.Quantile(phi); single != batch[i] {
			t.Errorf("phi=%.2f: batch %v != single %v", phi, batch[i], single)
		}
	}
}

func TestMergeMatchesConcatenation(t *testing.T) {
	const k, n = 64, 1 << 15
	a := New(k, NewRandomBits(19))
	b := New(k, NewRandomBits(23))
	whole := New(k, NewRandomBits(29))
	for i := 0; i < n; i++ {
		v := float64(i)
		whole.Update(v)
		if i%2 == 0 {
			a.Update(v)
		} else {
			b.Update(v)
		}
	}
	a.Merge(b)
	if a.N() != uint64(n) {
		t.Fatalf("merged N = %d, want %d", a.N(), n)
	}
	if a.Min() != 0 || a.Max() != float64(n-1) {
		t.Fatalf("merged min/max wrong: %v/%v", a.Min(), a.Max())
	}
	eps := EpsilonBound(k, uint64(n))
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		v := a.Quantile(phi)
		r := trueRankOfValue(v, n)
		// Merged sketches may roughly double the error constant; allow 2ε.
		if math.Abs(r-phi) > 2*eps {
			t.Errorf("phi=%.2f: merged rank error %.4f > 2ε=%.4f", phi, math.Abs(r-phi), 2*eps)
		}
	}
}

func TestMergeEmptyAndIntoEmpty(t *testing.T) {
	a := New(64, nil)
	b := New(64, nil)
	feedSequential(b, 10000)
	a.Merge(b) // into empty
	if a.N() != 10000 {
		t.Fatalf("N = %d, want 10000", a.N())
	}
	before := a.Quantile(0.5)
	empty := New(64, nil)
	a.Merge(empty) // empty into full: no-op
	if a.N() != 10000 || a.Quantile(0.5) != before {
		t.Fatal("merging empty sketch changed state")
	}
}

func TestMergeKMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge with different k did not panic")
		}
	}()
	New(64, nil).Merge(New(128, nil))
}

func TestWeightInvariant(t *testing.T) {
	// The total weight of retained items must always equal n.
	s := New(32, NewRandomBits(31))
	check := func() {
		var w uint64 = uint64(len(s.base))
		for i, lv := range s.lvls {
			if lv != nil {
				w += uint64(len(lv)) << uint(i+1)
			}
		}
		if w != s.n {
			t.Fatalf("total weight %d != n %d", w, s.n)
		}
	}
	for i := 0; i < 50000; i++ {
		s.Update(float64(i % 997))
		if i%977 == 0 {
			check()
		}
	}
	check()
}

func TestLevelsSortedInvariant(t *testing.T) {
	s := New(16, NewRandomBits(37))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 30000; i++ {
		s.Update(rng.Float64())
	}
	for li, lv := range s.lvls {
		if lv == nil {
			continue
		}
		if len(lv) != s.k {
			t.Fatalf("level %d has %d items, want k=%d", li, len(lv), s.k)
		}
		if !sort.Float64sAreSorted(lv) {
			t.Fatalf("level %d not sorted", li)
		}
	}
}

func TestDeterministicWithFixedBits(t *testing.T) {
	a := New(64, NewFixedBits(false))
	b := New(64, NewFixedBits(false))
	for i := 0; i < 100000; i++ {
		v := float64((i * 2654435761) % 1000003)
		a.Update(v)
		b.Update(v)
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(phi) != b.Quantile(phi) {
			t.Fatalf("de-randomised sketches disagree at phi=%v", phi)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(64, nil)
	feedSequential(s, 100000)
	s.Reset()
	if !s.IsEmpty() || s.Retained() != 0 {
		t.Fatal("reset did not empty the sketch")
	}
	s.Update(42)
	if s.Quantile(0.5) != 42 || s.N() != 1 {
		t.Fatal("post-reset update broken")
	}
}

func TestPropertyQuantileWithinMinMax(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(43))}
	f := func(seed int64, size uint16, phi float64) bool {
		phi = math.Abs(phi)
		phi -= math.Floor(phi) // φ ∈ [0,1)
		n := int(size)%5000 + 1
		s := New(32, NewRandomBits(seed))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			s.Update(rng.NormFloat64())
		}
		q := s.Quantile(phi)
		return q >= s.Min() && q <= s.Max()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyRankMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(47))}
	f := func(seed int64) bool {
		s := New(32, NewRandomBits(seed))
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for i := 0; i < 20000; i++ {
			s.Update(rng.Float64() * 1000)
		}
		prev := -1.0
		for v := 0.0; v <= 1000; v += 50 {
			r := s.Rank(v)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergeWeightConservation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(53))}
	f := func(na, nb uint16) bool {
		a := New(16, NewRandomBits(1))
		b := New(16, NewRandomBits(2))
		for i := 0; i < int(na); i++ {
			a.Update(float64(i))
		}
		for i := 0; i < int(nb); i++ {
			b.Update(float64(i) + 0.5)
		}
		a.Merge(b)
		return a.N() == uint64(na)+uint64(nb)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRelaxedEpsilonFormula(t *testing.T) {
	// ε_r = ε − rε/n + r/n (Section 6.2): at n=r it degrades to 1·(1-ε)+ε… and
	// as n→∞ it approaches ε.
	eps := 0.01
	r := 64
	if got := RelaxedEpsilon(eps, r, 1<<30); math.Abs(got-eps) > 1e-6 {
		t.Errorf("large-n relaxed epsilon %v should approach %v", got, eps)
	}
	small := RelaxedEpsilon(eps, r, 128)
	if small <= eps {
		t.Errorf("small-n relaxed epsilon %v should exceed ε=%v", small, eps)
	}
	// Monotone decreasing in n.
	prev := math.Inf(1)
	for _, n := range []uint64{100, 1000, 10000, 100000} {
		cur := RelaxedEpsilon(eps, r, n)
		if cur > prev {
			t.Errorf("relaxed epsilon not monotone: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestCDF(t *testing.T) {
	s := New(128, NewRandomBits(59))
	const n = 1 << 16
	feedSequential(s, n)
	splits := []float64{float64(n) * 0.25, float64(n) * 0.5, float64(n) * 0.75}
	cdf := s.CDF(splits)
	eps := EpsilonBound(128, uint64(n))
	for i, want := range []float64{0.25, 0.5, 0.75} {
		if math.Abs(cdf[i]-want) > eps {
			t.Errorf("CDF[%d] = %v, want ≈%v", i, cdf[i], want)
		}
	}
}

func BenchmarkUpdate(b *testing.B) {
	s := New(128, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(float64(i))
	}
}

func BenchmarkQuantile(b *testing.B) {
	s := New(128, nil)
	feedSequential(s, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.5)
	}
}

func BenchmarkMerge(b *testing.B) {
	src := New(128, nil)
	feedSequential(src, 1<<18)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst := New(128, nil)
		dst.Merge(src)
	}
}
