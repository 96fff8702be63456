// Package quantiles implements a mergeable streaming quantiles sketch in the
// style of Agarwal et al., "Mergeable Summaries" (PODS 2012) — the algorithm
// behind the Apache DataSketches Quantiles sketch that "Fast Concurrent Data
// Sketches" (PPoPP 2020) instantiates in Section 6.2.
//
// The sketch keeps a base buffer of up to 2k raw items plus a sequence of
// levels, each holding either nothing or exactly k sorted items; an item at
// level i carries weight 2^(i+1). When the base buffer fills it is sorted
// and "zipped" (every other item, random offset) into a level-0 carry, which
// propagates like binary addition: occupied levels are merged into the carry
// and cleared until an empty level receives it.
//
// The sketch is probably-approximately-correct (PAC): a query for quantile φ
// returns an element whose normalized rank is within ε of φ with probability
// at least 1−δ, where ε shrinks as k grows (for k=128, ε ≈ 1.7% at the
// DataSketches default confidence).
//
// Randomness — the zip offset coin flips — is injected through a BitSource,
// which is the paper's de-randomisation oracle (Section 4): given the oracle
// output, the sketch behaves deterministically, which is what lets the
// relaxed sequential specification be defined at all.
package quantiles

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// BitSource supplies the random bits consumed by compactions. It is the
// de-randomisation oracle of the paper: tests can fix the coin flips.
type BitSource interface {
	Bit() bool
}

// rngBits adapts math/rand to BitSource.
type rngBits struct{ r *rand.Rand }

func (b rngBits) Bit() bool { return b.r.Int63()&1 == 1 }

// NewRandomBits returns a BitSource backed by math/rand with the given seed.
func NewRandomBits(seed int64) BitSource {
	return rngBits{rand.New(rand.NewSource(seed))}
}

// fixedBits is a deterministic BitSource for tests.
type fixedBits struct{ v bool }

func (f fixedBits) Bit() bool { return f.v }

// NewFixedBits returns a BitSource that always yields v — a fully
// de-randomised sketch for deterministic tests.
func NewFixedBits(v bool) BitSource { return fixedBits{v} }

// Sketch is a sequential mergeable quantiles sketch over float64 values.
// It is not safe for concurrent use.
type Sketch struct {
	k    int
	n    uint64
	min  float64
	max  float64
	base []float64   // unsorted base buffer, cap 2k
	lvls [][]float64 // lvls[i] is nil or a sorted slice of exactly k items
	bits BitSource
	// gen changes whenever lvls may have changed or base was emptied, so a
	// Composable knows when its cached level run and sorted base are stale.
	gen uint64
}

// New returns an empty sketch with summary parameter k (items per level).
// k must be ≥ 2 and even behaviour is identical for odd k, but powers of two
// are customary. bits supplies compaction coin flips; pass nil for a
// default source seeded from k.
func New(k int, bits BitSource) *Sketch {
	if k < 2 {
		panic(fmt.Sprintf("quantiles: k must be ≥ 2, got %d", k))
	}
	if bits == nil {
		bits = NewRandomBits(int64(k))
	}
	return &Sketch{
		k:    k,
		min:  math.Inf(1),
		max:  math.Inf(-1),
		base: make([]float64, 0, 2*k),
		bits: bits,
	}
}

// K returns the summary parameter.
func (s *Sketch) K() int { return s.k }

// N returns the number of items the sketch has summarised.
func (s *Sketch) N() uint64 { return s.n }

// IsEmpty reports whether no items have been processed.
func (s *Sketch) IsEmpty() bool { return s.n == 0 }

// Min returns the exact minimum item seen (+Inf when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the exact maximum item seen (−Inf when empty).
func (s *Sketch) Max() float64 { return s.max }

// Update processes one stream value.
func (s *Sketch) Update(v float64) {
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.n++
	s.base = append(s.base, v)
	if len(s.base) == 2*s.k {
		s.compactBase()
	}
}

// compactBase sorts and zips the full base buffer into a level-0 carry and
// propagates it.
func (s *Sketch) compactBase() {
	slices.Sort(s.base)
	carry := s.zip(s.base)
	s.base = s.base[:0]
	s.propagate(0, carry)
}

// zip halves a sorted 2k-item slice, keeping every other element starting at
// a random offset. The returned slice is freshly allocated (it becomes level
// storage).
func (s *Sketch) zip(in []float64) []float64 {
	offset := 0
	if s.bits.Bit() {
		offset = 1
	}
	out := make([]float64, len(in)/2)
	for i := range out {
		out[i] = in[2*i+offset]
	}
	return out
}

// propagate performs the binary-addition carry walk: insert `carry` (sorted,
// k items) at level lvl, merging and re-zipping through occupied levels.
func (s *Sketch) propagate(lvl int, carry []float64) {
	s.gen++
	for {
		for len(s.lvls) <= lvl {
			s.lvls = append(s.lvls, nil)
		}
		if s.lvls[lvl] == nil {
			s.lvls[lvl] = carry
			return
		}
		merged := mergeSorted(s.lvls[lvl], carry)
		s.lvls[lvl] = nil
		carry = s.zip(merged)
		lvl++
	}
}

// mergeSorted merges two sorted slices into a new sorted slice.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Merge folds other into s; afterwards s summarises the concatenation of
// both streams. other is not modified.
func (s *Sketch) Merge(other *Sketch) {
	if other.k != s.k {
		panic(fmt.Sprintf("quantiles: cannot merge k=%d into k=%d", other.k, s.k))
	}
	if other.n == 0 {
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	// Base buffer items are raw weight-1 items; replay them. Note Update
	// maintains n, min, max itself, so feed via the low-level path.
	for _, v := range other.base {
		s.n++
		s.base = append(s.base, v)
		if len(s.base) == 2*s.k {
			s.compactBase()
		}
	}
	// Each occupied level is a k-item summary of 2^(i+1)·k raw items:
	// carry-add a copy into our levels at the same height.
	for i, lv := range other.lvls {
		if lv == nil {
			continue
		}
		s.n += uint64(s.k) << uint(i+1)
		carry := append([]float64(nil), lv...)
		s.propagate(i, carry)
	}
}

// Reset restores the empty state (the BitSource is kept).
func (s *Sketch) Reset() {
	s.n = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.base = s.base[:0]
	s.lvls = s.lvls[:0]
	s.gen++
}

// weightedItem pairs a retained value with its weight.
type weightedItem struct {
	value  float64
	weight uint64
}

// gather collects all retained items with weights, sorted by value.
func (s *Sketch) gather() []weightedItem {
	items := make([]weightedItem, 0, len(s.base)+len(s.lvls)*s.k)
	for _, v := range s.base {
		items = append(items, weightedItem{v, 1})
	}
	for i, lv := range s.lvls {
		if lv == nil {
			continue
		}
		w := uint64(1) << uint(i+1)
		for _, v := range lv {
			items = append(items, weightedItem{v, w})
		}
	}
	slices.SortFunc(items, func(a, b weightedItem) int { return cmp.Compare(a.value, b.value) })
	return items
}

// Quantile returns an element of the stream whose normalized rank is
// approximately φ. φ=0 returns the exact minimum and φ=1 the exact maximum.
func (s *Sketch) Quantile(phi float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.min
	}
	if phi >= 1 {
		return s.max
	}
	items := s.gather()
	target := phi * float64(s.n)
	var cum float64
	for _, it := range items {
		cum += float64(it.weight)
		if cum >= target {
			return it.value
		}
	}
	return s.max
}

// Quantiles evaluates multiple quantile fractions in one gather pass.
func (s *Sketch) Quantiles(phis []float64) []float64 {
	out := make([]float64, len(phis))
	if s.n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	items := s.gather()
	for idx, phi := range phis {
		switch {
		case phi <= 0:
			out[idx] = s.min
		case phi >= 1:
			out[idx] = s.max
		default:
			target := phi * float64(s.n)
			var cum float64
			out[idx] = s.max
			for _, it := range items {
				cum += float64(it.weight)
				if cum >= target {
					out[idx] = it.value
					break
				}
			}
		}
	}
	return out
}

// Rank returns the estimated normalized rank of v: the fraction of stream
// items strictly less than v.
func (s *Sketch) Rank(v float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	var below uint64
	for _, x := range s.base {
		if x < v {
			below++
		}
	}
	for i, lv := range s.lvls {
		if lv == nil {
			continue
		}
		w := uint64(1) << uint(i+1)
		// Level slices are sorted: binary search for the boundary.
		lo := sort.SearchFloat64s(lv, v)
		below += uint64(lo) * w
	}
	return float64(below) / float64(s.n)
}

// CDF returns the estimated cumulative distribution evaluated at the given
// split points (which must be sorted ascending).
func (s *Sketch) CDF(splits []float64) []float64 {
	out := make([]float64, len(splits))
	for i, v := range splits {
		out[i] = s.Rank(v)
	}
	return out
}

// Retained returns the number of items currently stored.
func (s *Sketch) Retained() int {
	r := len(s.base)
	for _, lv := range s.lvls {
		if lv != nil {
			r += len(lv)
		}
	}
	return r
}

// EpsilonBound returns an empirical-constant bound on the normalized rank
// error ε of a sequential sketch with parameter k. DataSketches quotes
// ε ≈ 1.7% for k=128 scaling roughly as k^-0.9; we use the conservative
// classical bound c·log₂(n/k)/k capped at 1, with c=1.5.
func EpsilonBound(k int, n uint64) float64 {
	if n <= uint64(2*k) {
		return 0 // everything fits in the base buffer: exact
	}
	eps := 1.5 * math.Log2(float64(n)/float64(k)) / float64(k)
	if eps > 1 {
		eps = 1
	}
	return eps
}

// RelaxedEpsilon returns the PAC error of an r-relaxed quantiles sketch
// (Section 6.2 of the paper): ε_r = ε − rε/n + r/n. The relaxation impact
// vanishes as n → ∞.
func RelaxedEpsilon(eps float64, r int, n uint64) float64 {
	if n == 0 {
		return eps
	}
	fn := float64(n)
	fr := float64(r)
	return eps - fr*eps/fn + fr/fn
}
