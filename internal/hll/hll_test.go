package hll

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(12, 9001)
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %v, want 0", got)
	}
}

func TestSmallRangeExactish(t *testing.T) {
	// Linear counting makes small cardinalities near-exact.
	s := New(12, 9001)
	for i := 0; i < 100; i++ {
		s.Update(uint64(i))
	}
	if est := s.Estimate(); math.Abs(est-100) > 5 {
		t.Fatalf("small-range estimate %v, want ≈100", est)
	}
}

func TestAccuracyLargeRange(t *testing.T) {
	const p = 12
	s := New(p, 9001)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		s.Update(uint64(i))
	}
	re := s.Estimate()/n - 1
	if math.Abs(re) > 4*RSEBound(p) {
		t.Fatalf("relative error %.4f exceeds 4·RSE=%.4f", re, 4*RSEBound(p))
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	a := New(10, 9001)
	b := New(10, 9001)
	for i := 0; i < 10000; i++ {
		a.Update(uint64(i % 100))
		if i < 100 {
			b.Update(uint64(i))
		}
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("duplicates changed state: %v vs %v", a.Estimate(), b.Estimate())
	}
}

func TestMergeIsUnion(t *testing.T) {
	a := New(12, 9001)
	b := New(12, 9001)
	u := New(12, 9001)
	for i := 0; i < 50000; i++ {
		a.Update(uint64(i))
		u.Update(uint64(i))
	}
	for i := 25000; i < 75000; i++ {
		b.Update(uint64(i))
		u.Update(uint64(i))
	}
	a.Merge(b)
	if a.Estimate() != u.Estimate() {
		t.Fatalf("merge not equivalent to union stream: %v vs %v", a.Estimate(), u.Estimate())
	}
}

func TestMergeMismatchPanics(t *testing.T) {
	for name, other := range map[string]*Sketch{
		"precision": New(11, 9001),
		"seed":      New(12, 1234),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch merge did not panic", name)
				}
			}()
			New(12, 9001).Merge(other)
		}()
	}
}

func TestPropertyMergeCommutative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	f := func(na, nb uint16) bool {
		a1, b1 := New(8, 9001), New(8, 9001)
		a2, b2 := New(8, 9001), New(8, 9001)
		for i := 0; i < int(na); i++ {
			a1.Update(uint64(i))
			a2.Update(uint64(i))
		}
		for i := 0; i < int(nb); i++ {
			b1.Update(uint64(i) + 1<<32)
			b2.Update(uint64(i) + 1<<32)
		}
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyRegisterMonotone(t *testing.T) {
	// Registers only grow under updates.
	s := New(6, 9001)
	prev := s.Registers()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		s.Update(rng.Uint64())
		cur := s.Registers()
		for j := range cur {
			if cur[j] < prev[j] {
				t.Fatalf("register %d decreased", j)
			}
		}
		prev = cur
	}
}

// TestEstimateTableMatchesLdexp pins Estimate's 2^-r table lookup to the
// math.Ldexp sum it replaced, bit for bit, across precisions, fills and
// every rank a register can hold.
func TestEstimateTableMatchesLdexp(t *testing.T) {
	ldexpEstimate := func(s *Sketch) float64 {
		var sum float64
		zeros := 0
		for _, r := range s.regs {
			sum += math.Ldexp(1, -int(r))
			if r == 0 {
				zeros++
			}
		}
		m := float64(s.m)
		raw := alpha(s.m) * m * m / sum
		if raw <= 2.5*m && zeros > 0 {
			return m * math.Log(m/float64(zeros))
		}
		return raw
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range []int{4, 8, 12, 21} {
		for _, n := range []int{0, 10, 1 << 10, 1 << 16} {
			s := New(p, 9001)
			for i := 0; i < n; i++ {
				s.UpdateHash(rng.Uint64())
			}
			if got, want := s.Estimate(), ldexpEstimate(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%d n=%d: estimate %v, Ldexp sum gives %v", p, n, got, want)
			}
		}
		// Registers at every legal rank, including the guard-bit maximum 65−p.
		s := New(p, 9001)
		for i := range s.regs {
			s.regs[i] = uint8(i % (66 - p))
		}
		if got, want := s.Estimate(), ldexpEstimate(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%d all ranks: estimate %v, Ldexp sum gives %v", p, got, want)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(10, 9001)
	for i := 0; i < 10000; i++ {
		s.Update(uint64(i))
	}
	s.Reset()
	if s.Estimate() != 0 {
		t.Fatal("reset did not empty sketch")
	}
}

func BenchmarkUpdate(b *testing.B) {
	s := New(12, 9001)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i))
	}
}
