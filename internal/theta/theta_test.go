package theta

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fastsketches/internal/murmur"
)

const testSeed = murmur.DefaultSeed

func feedUnique(s Sketch, n int) {
	for i := 0; i < n; i++ {
		s.Update(uint64(i))
	}
}

func variants(t *testing.T) map[string]func() Sketch {
	t.Helper()
	return map[string]func() Sketch{
		"QuickSelect": func() Sketch { return NewQuickSelect(10, testSeed) },
	}
}

func TestEmptySketch(t *testing.T) {
	for name, mk := range variants(t) {
		s := mk()
		if got := s.Estimate(); got != 0 {
			t.Errorf("%s: empty estimate = %v, want 0", name, got)
		}
		if s.Retained() != 0 {
			t.Errorf("%s: empty retained = %d, want 0", name, s.Retained())
		}
		if s.ThetaLong() != MaxTheta {
			t.Errorf("%s: empty theta = %d, want MaxTheta", name, s.ThetaLong())
		}
	}
}

func TestExactModeIsExact(t *testing.T) {
	// Before the sample set fills, the sketch must count exactly.
	for name, mk := range variants(t) {
		s := mk()
		for n := 1; n <= 1000; n++ {
			s.Update(uint64(n))
			if est := s.Estimate(); est != float64(n) {
				t.Fatalf("%s: after %d uniques estimate = %v, want exact", name, n, est)
			}
		}
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	for name, mk := range variants(t) {
		s := mk()
		for round := 0; round < 5; round++ {
			for i := 0; i < 500; i++ {
				s.Update(uint64(i))
			}
		}
		if est := s.Estimate(); est != 500 {
			t.Errorf("%s: estimate with duplicates = %v, want 500", name, est)
		}
	}
}

func TestEstimationAccuracy(t *testing.T) {
	// With k=1024 the RSE bound is 1/√1022 ≈ 3.1%. A single run at n=100k
	// should land within 4 RSE of the truth.
	for name, mk := range variants(t) {
		s := mk()
		const n = 100000
		feedUnique(s, n)
		est := s.Estimate()
		re := est/n - 1
		if math.Abs(re) > 4*RSEBound(1024) {
			t.Errorf("%s: relative error %.4f exceeds 4·RSE=%.4f", name, re, 4*RSEBound(1024))
		}
	}
}

func TestThetaMonotonicallyNonIncreasing(t *testing.T) {
	for name, mk := range variants(t) {
		s := mk()
		prev := s.ThetaLong()
		for i := 0; i < 50000; i++ {
			s.Update(uint64(i))
			cur := s.ThetaLong()
			if cur > prev {
				t.Fatalf("%s: theta increased from %d to %d at update %d", name, prev, cur, i)
			}
			prev = cur
		}
	}
}

func TestQuickSelectInvariants(t *testing.T) {
	const lgK = 6 // k=64
	s := NewQuickSelect(lgK, testSeed)
	k := 1 << lgK
	for i := 0; i < 100000; i++ {
		s.Update(uint64(i))
		if s.Retained() >= 2*k {
			t.Fatalf("retained %d ≥ 2k=%d after rebuild point", s.Retained(), 2*k)
		}
		for _, h := range s.Retention(nil) {
			if h >= s.ThetaLong() && s.ThetaLong() != MaxTheta {
				t.Fatalf("retained hash %d ≥ theta %d", h, s.ThetaLong())
			}
		}
		if i == 1000 {
			// Spot-check invariant densely only early on (the loop above is
			// O(retained) per update); afterwards sample sparsely.
			break
		}
	}
	for i := 1001; i < 100000; i += 997 {
		s.Update(uint64(i))
	}
	if s.ThetaLong() == MaxTheta {
		t.Fatal("sketch never entered estimation mode")
	}
}

func TestOrderInsensitive(t *testing.T) {
	// The paper: "the state of a Θ sketch after a set of updates is
	// independent of their processing order." QuickSelect's retained
	// superset depends on rebuild timing, so only the estimate's accuracy —
	// not its bits — is order-independent.
	keys := rand.New(rand.NewSource(7)).Perm(30000)

	qa, qb := NewQuickSelect(10, testSeed), NewQuickSelect(10, testSeed)
	for _, x := range keys {
		qa.Update(uint64(x))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		qb.Update(uint64(keys[i]))
	}
	for _, est := range []float64{qa.Estimate(), qb.Estimate()} {
		if math.Abs(est/30000-1) > 4*RSEBound(1024) {
			t.Errorf("QuickSelect: estimate %v out of tolerance for either order", est)
		}
	}
}

func TestMergeEquivalentToConcatenation(t *testing.T) {
	// merge(S over A, S' over A') must summarise A||A' (Section 3).
	for name, mk := range variants(t) {
		whole, partA, partB := mk(), mk(), mk()
		const n = 40000
		for i := 0; i < n; i++ {
			whole.Update(uint64(i))
			if i < n/2 {
				partA.Update(uint64(i))
			} else {
				partB.Update(uint64(i))
			}
		}
		partA.Merge(partB)
		// The merged sketch summarises the same multiset; estimates must be
		// close (they can differ slightly because retention boundaries
		// differ between incremental and batch paths for QuickSelect).
		re := partA.Estimate()/whole.Estimate() - 1
		if math.Abs(re) > 0.05 {
			t.Errorf("%s: merged estimate %v vs whole-stream %v (re=%.4f)", name, partA.Estimate(), whole.Estimate(), re)
		}
	}
}

func TestMergeOverlappingStreams(t *testing.T) {
	for name, mk := range variants(t) {
		a, b := mk(), mk()
		for i := 0; i < 30000; i++ {
			a.Update(uint64(i)) // [0, 30000)
		}
		for i := 15000; i < 45000; i++ {
			b.Update(uint64(i)) // [15000, 45000)
		}
		a.Merge(b)
		est := a.Estimate()
		if math.Abs(est/45000-1) > 5*RSEBound(1024) {
			t.Errorf("%s: union estimate %v, want ≈45000", name, est)
		}
	}
}

func TestMergeSeedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different seeds did not panic")
		}
	}()
	a := NewQuickSelect(6, 1)
	b := NewQuickSelect(6, 2)
	a.Merge(b)
}

func TestReset(t *testing.T) {
	for name, mk := range variants(t) {
		s := mk()
		feedUnique(s, 50000)
		s.Reset()
		if s.Estimate() != 0 || s.Retained() != 0 || s.ThetaLong() != MaxTheta {
			t.Errorf("%s: reset did not restore empty state", name)
		}
		feedUnique(s, 100)
		if s.Estimate() != 100 {
			t.Errorf("%s: post-reset estimate %v, want 100", name, s.Estimate())
		}
	}
}

func TestPropertyEstimateWithinBounds(t *testing.T) {
	// Property: for any stream size, the estimate stays within 6 RSE of
	// truth (probabilistic, but 6σ across ~40 quick-check trials is safe).
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}
	f := func(seed16 uint16, size uint16) bool {
		n := int(size)%50000 + 1
		s := NewQuickSelect(9, uint64(seed16)+1) // k=512
		base := uint64(seed16) << 32
		for i := 0; i < n; i++ {
			s.Update(base + uint64(i))
		}
		est := s.Estimate()
		tol := 6 * RSEBound(512) * float64(n)
		return math.Abs(est-float64(n)) <= tol+1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergeCommutative(t *testing.T) {
	// QuickSelect's Θ after a merge depends on rebuild timing, so A ∪ B and
	// B ∪ A may settle on different thresholds. What both orders must
	// produce is an exact sample: precisely the hashes of A ∪ B below their
	// own Θ, neither losing a hash nor keeping one at or above Θ.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(43))}
	f := func(na, nb uint16) bool {
		a1, b1 := NewQuickSelect(7, testSeed), NewQuickSelect(7, testSeed)
		a2, b2 := NewQuickSelect(7, testSeed), NewQuickSelect(7, testSeed)
		var all []uint64
		for i := 0; i < int(na); i++ {
			a1.Update(uint64(i))
			a2.Update(uint64(i))
			all = append(all, HashKey(uint64(i), testSeed))
		}
		for i := 0; i < int(nb); i++ {
			b1.Update(uint64(i) + 1<<40)
			b2.Update(uint64(i) + 1<<40)
			all = append(all, HashKey(uint64(i)+1<<40, testSeed))
		}
		a1.Merge(b1) // A ∪ B
		b2.Merge(a2) // B ∪ A
		return isExactSample(a1, all) && isExactSample(b2, all)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// isExactSample reports whether s retains exactly the hashes in all that lie
// below its Θ.
func isExactSample(s Sketch, all []uint64) bool {
	var want []uint64
	for _, h := range all {
		if h < s.ThetaLong() {
			want = append(want, h)
		}
	}
	got := s.Retention(nil)
	slices.Sort(want)
	slices.Sort(got)
	return slices.Equal(got, want)
}

func TestQuickSelectHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()%1000 + 1
		}
		rank := rng.Intn(n)
		sorted := append([]uint64(nil), a...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if got := quickSelect(a, rank); got != sorted[rank] {
			t.Fatalf("quickSelect(rank=%d) = %d, want %d", rank, got, sorted[rank])
		}
	}
}

func TestUnionEstimate(t *testing.T) {
	a := NewQuickSelect(10, testSeed)
	b := NewQuickSelect(10, testSeed)
	for i := 0; i < 50000; i++ {
		a.Update(uint64(i))
		b.Update(uint64(i + 25000))
	}
	u := NewUnion(10, testSeed)
	u.Add(a)
	u.Add(b)
	est := u.Estimate()
	if math.Abs(est/75000-1) > 5*RSEBound(1024) {
		t.Errorf("union estimate %v, want ≈75000", est)
	}
}

func TestIntersectEstimate(t *testing.T) {
	a := NewQuickSelect(12, testSeed)
	b := NewQuickSelect(12, testSeed)
	for i := 0; i < 100000; i++ {
		a.Update(uint64(i))
		b.Update(uint64(i + 50000))
	}
	inter := Intersect(a, b)
	est := inter.Estimate()
	if math.Abs(est/50000-1) > 0.15 {
		t.Errorf("intersection estimate %v, want ≈50000", est)
	}
}

func TestAnotBEstimate(t *testing.T) {
	a := NewQuickSelect(12, testSeed)
	b := NewQuickSelect(12, testSeed)
	for i := 0; i < 100000; i++ {
		a.Update(uint64(i))
		b.Update(uint64(i + 50000))
	}
	diff := AnotB(a, b)
	est := diff.Estimate()
	if math.Abs(est/50000-1) > 0.15 {
		t.Errorf("A\\B estimate %v, want ≈50000", est)
	}
}

func TestSerializeRoundTripQuickSelect(t *testing.T) {
	for _, n := range []int{0, 1, 100, 50000} {
		s := NewQuickSelect(8, testSeed)
		feedUnique(s, n)
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalQuickSelect(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Estimate() != s.Estimate() || got.ThetaLong() != s.ThetaLong() || got.Retained() != s.Retained() {
			t.Fatalf("n=%d: round-trip mismatch est %v vs %v", n, got.Estimate(), s.Estimate())
		}
	}
}

func TestSerializeCorruptionDetected(t *testing.T) {
	s := NewQuickSelect(6, testSeed)
	feedUnique(s, 1000)
	data, _ := s.MarshalBinary()

	cases := map[string]func([]byte) []byte{
		"truncated": func(d []byte) []byte { return d[:len(d)-3] },
		"bad magic": func(d []byte) []byte { d[0] ^= 0xff; return d },
		"bad count": func(d []byte) []byte { d[24] ^= 0x01; return d },
		"zero hash": func(d []byte) []byte {
			for i := 0; i < 8; i++ {
				d[headerSize+i] = 0
			}
			return d
		},
		"hash at theta": func(d []byte) []byte {
			copy(d[headerSize:], d[16:24]) // first retained hash := Θ
			return d
		},
		"wrong kind": func(d []byte) []byte { d[5] = variantCompact; return d },
		// Variant 1 (K-Minimum-Values) is reserved: no decoder accepts it.
		"reserved kind": func(d []byte) []byte { d[5] = 1; return d },
	}
	for name, corrupt := range cases {
		c := corrupt(append([]byte(nil), data...))
		if _, err := UnmarshalQuickSelect(c); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestCompactSerializeRoundTrip(t *testing.T) {
	a := NewQuickSelect(8, testSeed)
	b := NewQuickSelect(8, testSeed)
	feedUnique(a, 20000)
	feedUnique(b, 20000)
	inter := Intersect(a, b)
	data, err := inter.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCompact(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != inter.Estimate() {
		t.Fatalf("round-trip estimate %v vs %v", got.Estimate(), inter.Estimate())
	}
}

func TestConfidenceBoundsCoverTruth(t *testing.T) {
	// 2-sigma bounds should cover the truth in the vast majority of trials.
	const trials = 100
	covered := 0
	for tr := 0; tr < trials; tr++ {
		s := NewQuickSelect(9, uint64(tr)+100)
		const n = 50000
		feedUnique(s, n)
		lo, hi := ConfidenceBounds(s.Estimate(), 512, 2)
		if lo <= n && n <= hi {
			covered++
		}
	}
	if covered < 90 {
		t.Errorf("2σ bounds covered truth in only %d/%d trials", covered, trials)
	}
}

func TestRSEBounds(t *testing.T) {
	if !math.IsInf(RSEBound(2), 1) {
		t.Error("RSEBound(2) should be +Inf")
	}
	if got := RSEBound(4098); math.Abs(got-1/math.Sqrt(4096)) > 1e-12 {
		t.Errorf("RSEBound(4098) = %v", got)
	}
	// Relaxed bound with r ≤ √(k−2) is at most twice sequential (Section 6.1).
	k := 1026
	r := 32 // = √1024
	if RelaxedRSEBound(k, r) > 2*RSEBound(k)+1e-12 {
		t.Errorf("relaxed bound %v exceeds twice sequential %v", RelaxedRSEBound(k, r), 2*RSEBound(k))
	}
}

func BenchmarkQuickSelectUpdate(b *testing.B) {
	s := NewQuickSelect(12, testSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i))
	}
}

func BenchmarkQuickSelectUpdateHash(b *testing.B) {
	s := NewQuickSelect(12, testSeed)
	hs := make([]uint64, 1<<16)
	for i := range hs {
		hs[i] = HashKey(uint64(i), testSeed)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.UpdateHash(hs[i&(1<<16-1)])
	}
}

func BenchmarkMerge(b *testing.B) {
	src := NewQuickSelect(12, testSeed)
	feedUnique(src, 1<<20)
	dst := NewQuickSelect(12, testSeed)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Merge(src)
	}
}
