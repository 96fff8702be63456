// Package theta implements Θ (theta) sketches for estimating the number of
// distinct elements in a stream.
//
// The sequential sketch is QuickSelect, the HeapQuickSelectSketch family used
// by the evaluation of the paper "Fast Concurrent Data Sketches" (PPoPP 2020,
// Section 7.1) and by Apache DataSketches. It retains between k and 2k
// hashes below Θ; when full it quick-selects a new Θ and discards the larger
// half. The estimate is retained/Θ. The paper's Section 6 analysis of the
// K-Minimum-Values estimator lives in internal/stats as closed forms.
//
// All sketches operate in raw 64-bit hash space: a stream element is hashed
// with MurmurHash3 into a uint64, and Θ is itself a uint64 threshold
// ("thetaLong" in DataSketches terms). The fraction of hash space below Θ is
// θ = thetaLong / 2⁶⁴, and an estimate of the distinct count divides the
// retained count by θ. Working in integer hash space gives exact duplicate
// elimination and cheap comparisons on the hot path.
package theta

import (
	"math"

	"fastsketches/internal/murmur"
)

// MaxTheta is the initial threshold: all of hash space is below it, so every
// new hash is retained ("exact mode"). It doubles as the hint encoding for
// "no filtering", and is never zero, so a zero hint can mean "pending".
const MaxTheta = math.MaxUint64

// ThetaToFraction converts an integer threshold to the fraction θ ∈ (0,1] of
// hash space it covers.
func ThetaToFraction(thetaLong uint64) float64 {
	return float64(thetaLong) / float64(math.MaxUint64)
}

// HashKey maps a stream element key to its sketch coordinate: a uint64 hash
// uniform on (0, 2⁶⁴). Hash value 0 is remapped to 1 so that 0 can be used
// as the empty slot marker in hash tables; the probability of remapping is
// 2⁻⁶⁴ and the induced bias is far below floating-point resolution.
func HashKey(key uint64, seed uint64) uint64 {
	h := murmur.HashUint64(key, seed)
	if h == 0 {
		return 1
	}
	return h
}

// HashString is HashKey for string elements.
func HashString(s string, seed uint64) uint64 {
	h := murmur.HashString(s, seed)
	if h == 0 {
		return 1
	}
	return h
}

// Sketch is the interface of a sequential Θ sketch. It matches the paper's
// sequential API (Section 3): init/update/query/merge, with update split
// into the by-key and by-hash forms so callers that have already hashed
// (e.g. the concurrent framework's pre-filter) don't pay for a second hash.
type Sketch interface {
	// Update processes a stream element identified by a uint64 key.
	Update(key uint64)
	// UpdateHash processes an already-hashed element.
	UpdateHash(h uint64)
	// Estimate returns the estimated number of distinct elements.
	Estimate() float64
	// ThetaLong returns the current integer threshold.
	ThetaLong() uint64
	// Retained returns the number of hash values currently stored.
	Retained() int
	// Retention appends the retained hashes to dst and returns it.
	Retention(dst []uint64) []uint64
	// Merge folds another sketch of the same variant into this one.
	Merge(other Sketch)
	// Reset returns the sketch to its freshly-initialised state.
	Reset()
	// Seed returns the hash seed; merging sketches with different seeds is
	// a user error that Merge panics on, as in DataSketches.
	Seed() uint64
}

// estimate computes the distinct-count estimate retained/θ for a sketch
// retaining `retained` hashes under threshold thetaLong. In exact mode
// (thetaLong == MaxTheta) every distinct element is retained, so the
// estimate is simply the retained count.
func estimate(retained int, thetaLong uint64) float64 {
	if thetaLong == MaxTheta {
		return float64(retained)
	}
	return float64(retained) / ThetaToFraction(thetaLong)
}

// RSEBound returns the a-priori relative standard error bound 1/√(k−2) of a
// sequential Θ sketch with k samples (Section 3 of the paper).
func RSEBound(k int) float64 {
	if k <= 2 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(float64(k-2))
}

// RelaxedRSEBound returns the weak-adversary RSE bound of an r-relaxed Θ
// sketch: √(1/(k−2)) + r/(k−2) (Section 6.1). For r ≤ √(k−2) this is at most
// twice the sequential bound.
func RelaxedRSEBound(k, r int) float64 {
	if k <= 2 {
		return math.Inf(1)
	}
	return math.Sqrt(1/float64(k-2)) + float64(r)/float64(k-2)
}

// ConfidenceBounds returns approximate lower and upper bounds on the true
// distinct count at the given number of standard deviations (1, 2 or 3),
// using the normal approximation est·(1 ∓ σ·RSE). In exact mode the bounds
// collapse to the estimate.
func ConfidenceBounds(est float64, k int, stdDevs int) (lo, hi float64) {
	if stdDevs < 1 {
		stdDevs = 1
	}
	rse := RSEBound(k) * float64(stdDevs)
	lo = est * (1 - rse)
	if lo < 0 {
		lo = 0
	}
	hi = est * (1 + rse)
	return lo, hi
}
