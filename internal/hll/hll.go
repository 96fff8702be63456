// Package hll implements a dense HyperLogLog sketch for distinct counting.
//
// The artifact appendix of "Fast Concurrent Data Sketches" (PPoPP 2020)
// lists HLL alongside the Θ sketch; this package provides it as a third
// substrate for the generic concurrent framework, demonstrating that the
// framework is not Θ-specific. The implementation follows Flajolet et al.
// (HLL) with the standard small-range (linear counting) correction of
// Heule et al., "HyperLogLog in Practice" (EDBT 2013), which the paper cites
// as prior art for distributed sketch merging.
package hll

import (
	"fmt"
	"math"
	"math/bits"

	"fastsketches/internal/murmur"
)

// Sketch is a dense HLL with 2^p registers. It is not safe for concurrent
// use; the concurrent framework provides that on top.
type Sketch struct {
	p    int
	m    int
	seed uint64
	regs []uint8
}

// New returns an empty HLL sketch with 2^p registers. p must be in [4, 21].
func New(p int, seed uint64) *Sketch {
	if p < 4 || p > 21 {
		panic(fmt.Sprintf("hll: precision must be in [4,21], got %d", p))
	}
	m := 1 << p
	return &Sketch{p: p, m: m, seed: seed, regs: make([]uint8, m)}
}

// P returns the precision parameter.
func (s *Sketch) P() int { return s.p }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// SizeBytes estimates the sketch's resident heap footprint in bytes: the
// struct header plus the register array — the memory-budget accounting hook
// of the sharded layer.
func (s *Sketch) SizeBytes() int { return 48 + cap(s.regs) }

// Update processes a stream element identified by a uint64 key.
func (s *Sketch) Update(key uint64) {
	s.UpdateHash(murmur.HashUint64(key, s.seed))
}

// UpdateHash processes an already-hashed element: the top p bits select a
// register, and the register keeps the maximum "rank" (position of the first
// 1-bit in the remaining bits, 1-based).
func (s *Sketch) UpdateHash(h uint64) {
	idx := h >> (64 - s.p)
	rest := h<<s.p | 1<<(s.p-1) // low bits shifted up; guard bit bounds the rank
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// alpha returns the bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// invPow2 holds 2^-r for every rank a register can hold: UpdateHash's guard
// bit caps a rank at 65−p ≤ 61, and imports reject anything larger. The
// entries are exact powers of two, so a lookup equals math.Ldexp(1, -r).
var invPow2 = func() (t [64]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the estimated number of distinct elements, applying
// linear counting when the raw estimate is small and registers remain empty.
func (s *Sketch) Estimate() float64 {
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += invPow2[r]
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

// Merge folds another HLL into this one by taking the register-wise max.
// The result summarises the union of both streams.
func (s *Sketch) Merge(other *Sketch) {
	if other.p != s.p {
		panic(fmt.Sprintf("hll: cannot merge p=%d into p=%d", other.p, s.p))
	}
	if other.seed != s.seed {
		panic("hll: cannot merge sketches with different seeds")
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
}

// FoldInto folds the receiver's registers into dst by register-wise max
// without mutating the receiver — the retired-state drain hook of the
// sharded layer's live resharding: a legacy sketch published by a completed
// Resize is folded into every merged-query accumulator exactly like one
// more shard snapshot. Allocation-free; the receiver is only read, so
// concurrent folds into distinct accumulators are safe.
func (s *Sketch) FoldInto(dst *Sketch) { dst.Merge(s) }

// MergeHashes folds a batch of raw hashes into the sketch.
func (s *Sketch) MergeHashes(hashes []uint64) {
	for _, h := range hashes {
		s.UpdateHash(h)
	}
}

// Reset restores the empty state.
func (s *Sketch) Reset() {
	for i := range s.regs {
		s.regs[i] = 0
	}
}

// Registers returns a copy of the register array (for tests/serialization).
func (s *Sketch) Registers() []uint8 {
	return append([]uint8(nil), s.regs...)
}

// RSEBound returns the standard error of a dense HLL with 2^p registers:
// ≈ 1.04/√m.
func RSEBound(p int) float64 {
	return 1.04 / math.Sqrt(float64(int(1)<<p))
}
