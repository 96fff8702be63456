package theta

import "fmt"

// QuickSelect is the HeapQuickSelectSketch-family Θ sketch used by the
// paper's evaluation (Section 7.1) and by Apache DataSketches as the default
// update sketch. It stores between k and 2k retained hashes below Θ in an
// open-addressing table; when the table reaches 2k entries it quick-selects
// the (k+1)-th smallest retained hash as the new Θ and discards everything
// at or above it, leaving exactly k entries. The estimate is retained/θ.
//
// Compared to KMV, updates are O(1) amortised (no heap maintenance) at the
// cost of a slightly larger memory footprint — which is exactly why the
// production library prefers it.
type QuickSelect struct {
	lgK       int
	k         int
	seed      uint64
	thetaLong uint64
	slots     []uint64 // open addressing, 0 = empty
	mask      uint64
	count     int
	scratch   []uint64 // reused by rebuild
}

// NewQuickSelect returns an empty QuickSelect sketch with 2^lgK nominal
// entries. lgK must be in [2, 26] (DataSketches allows 4..26; we accept ≥2
// so tests can exercise tiny sketches).
func NewQuickSelect(lgK int, seed uint64) *QuickSelect {
	if lgK < 2 || lgK > 26 {
		panic(fmt.Sprintf("theta: QuickSelect lgK must be in [2,26], got %d", lgK))
	}
	k := 1 << lgK
	// Table sized 4k: holds up to 2k entries at load factor ≤ 1/2.
	size := 4 * k
	return &QuickSelect{
		lgK:       lgK,
		k:         k,
		seed:      seed,
		thetaLong: MaxTheta,
		slots:     make([]uint64, size),
		mask:      uint64(size - 1),
		scratch:   make([]uint64, 0, 2*k),
	}
}

// Seed returns the hash seed.
func (s *QuickSelect) Seed() uint64 { return s.seed }

// SizeBytes estimates the sketch's resident heap footprint: the struct
// header plus its open-addressing slot table and rebuild scratch. Capacity,
// not length, is counted — the memory is resident either way.
func (s *QuickSelect) SizeBytes() int {
	return 96 + 8*(cap(s.slots)+cap(s.scratch))
}

// K returns the nominal entry count (2^lgK).
func (s *QuickSelect) K() int { return s.k }

// LgK returns log2 of the nominal entry count.
func (s *QuickSelect) LgK() int { return s.lgK }

// Update hashes key and processes it.
func (s *QuickSelect) Update(key uint64) { s.UpdateHash(HashKey(key, s.seed)) }

// UpdateHash processes an already-hashed element: reject if ≥ Θ, insert into
// the table (duplicates are no-ops), and rebuild when 2k entries accumulate.
func (s *QuickSelect) UpdateHash(h uint64) {
	if h >= s.thetaLong {
		return
	}
	if !s.insert(h) {
		return
	}
	if s.count >= 2*s.k {
		s.rebuild()
	}
}

// insert adds h to the table, reporting whether it was newly added.
func (s *QuickSelect) insert(h uint64) bool {
	i := (h * 0x9e3779b97f4a7c15) >> 32 & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = h
			s.count++
			return true
		}
		if v == h {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// rebuild quick-selects the (k+1)-th smallest retained hash, adopts it as
// the new Θ, and rebuilds the table with the k entries strictly below it.
func (s *QuickSelect) rebuild() {
	s.scratch = s.scratch[:0]
	for _, v := range s.slots {
		if v != 0 {
			s.scratch = append(s.scratch, v)
		}
	}
	// (k+1)-th smallest = index k (0-based) of the sorted order.
	pivot := quickSelect(s.scratch, s.k)
	s.thetaLong = pivot
	for i := range s.slots {
		s.slots[i] = 0
	}
	s.count = 0
	for _, v := range s.scratch {
		if v < pivot {
			s.insert(v)
		}
	}
}

// Estimate returns retained/θ (exact count while Θ is still 2⁶⁴−1).
func (s *QuickSelect) Estimate() float64 {
	return estimate(s.count, s.thetaLong, false)
}

// ThetaLong returns the integer threshold.
func (s *QuickSelect) ThetaLong() uint64 { return s.thetaLong }

// Retained returns the number of stored hashes.
func (s *QuickSelect) Retained() int { return s.count }

// Retention appends the retained hashes to dst and returns it.
func (s *QuickSelect) Retention(dst []uint64) []uint64 {
	for _, v := range s.slots {
		if v != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// Merge folds another Θ sketch into this one: Θ drops to the minimum of the
// two thresholds, entries at or above the new Θ are discarded, and the
// sketch rebuilds if it overflows — the paper's merge (Algorithm 1, lines
// 14–18) adapted to the k..2k retention policy.
func (s *QuickSelect) Merge(other Sketch) {
	if other.Seed() != s.seed {
		panic("theta: cannot merge sketches with different seeds")
	}
	if ot := other.ThetaLong(); ot < s.thetaLong {
		s.shrinkTheta(ot)
	}
	for _, h := range other.Retention(nil) {
		s.UpdateHash(h)
	}
}

// MergeHashes folds a batch of raw hashes (e.g. a local buffer from the
// concurrent framework) into the sketch.
func (s *QuickSelect) MergeHashes(hashes []uint64) {
	for _, h := range hashes {
		s.UpdateHash(h)
	}
}

// shrinkTheta lowers Θ to newTheta and evicts entries no longer below it.
func (s *QuickSelect) shrinkTheta(newTheta uint64) {
	if newTheta >= s.thetaLong {
		return
	}
	s.thetaLong = newTheta
	s.scratch = s.scratch[:0]
	for _, v := range s.slots {
		if v != 0 && v < newTheta {
			s.scratch = append(s.scratch, v)
		}
	}
	for i := range s.slots {
		s.slots[i] = 0
	}
	s.count = 0
	for _, v := range s.scratch {
		s.insert(v)
	}
}

// Reset restores the empty state without releasing capacity. The table is
// cleared only when it holds entries: count is exactly the number of
// occupied slots.
func (s *QuickSelect) Reset() {
	s.thetaLong = MaxTheta
	if s.count > 0 {
		clear(s.slots)
		s.count = 0
	}
}

// quickSelect returns the element with 0-based rank `rank` in ascending
// order, partially reordering a in place (Hoare selection with median-of-3
// pivoting; expected O(n)).
func quickSelect(a []uint64, rank int) uint64 {
	lo, hi := 0, len(a)-1
	for {
		if lo == hi {
			return a[lo]
		}
		p := partition(a, lo, hi)
		switch {
		case rank == p:
			return a[p]
		case rank < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// partition performs Lomuto partition with a median-of-3 pivot, returning
// the pivot's final index.
func partition(a []uint64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-3: order a[lo], a[mid], a[hi] and use the median as pivot.
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	a[mid], a[hi] = a[hi], a[mid] // move pivot to end
	pivot := a[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}
