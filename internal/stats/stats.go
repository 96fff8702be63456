// Package stats provides the statistical machinery used by the error
// analysis and the accuracy harness: trial aggregation (mean, RSE, quantiles
// of the error distribution — the "pitchfork" lines of Figure 5) and the
// closed-form expressions of Section 6.1.
package stats

import (
	"math"
	"sort"
)

// Summary aggregates a set of trial observations.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes moments of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Quantile returns the q-th empirical quantile of xs (xs is copied; linear
// interpolation between order statistics).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return quantileSorted(cp, q)
}

// Quantiles evaluates several quantiles with one sort.
func Quantiles(xs []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for i, q := range qs {
		out[i] = quantileSorted(cp, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RSE computes the relative standard error of estimates with respect to the
// true value: √(E[(est−truth)²]) / truth — the root-mean-square error
// normalised by the quantity being estimated, matching the paper's
// RSE[e] ≤ √(σ²/n²) + √((E[e]−n)²/n²) decomposition (variance plus bias,
// both relative).
func RSE(estimates []float64, truth float64) float64 {
	if len(estimates) == 0 || truth == 0 {
		return math.NaN()
	}
	var mse float64
	for _, e := range estimates {
		d := e - truth
		mse += d * d
	}
	mse /= float64(len(estimates))
	return math.Sqrt(mse) / truth
}

// RelativeErrors maps estimates to relative errors (est/truth − 1), the
// quantity plotted by the accuracy pitchforks (RE = Measured/True − 1).
func RelativeErrors(estimates []float64, truth float64) []float64 {
	out := make([]float64, len(estimates))
	for i, e := range estimates {
		out[i] = e/truth - 1
	}
	return out
}

// --- Closed forms of Section 6.1 (Table 1) ---

// SeqExpectation is the expected estimate of the sequential Θ sketch: n
// (the estimator is unbiased).
func SeqExpectation(n float64) float64 { return n }

// SeqRSEBound is the sequential RSE bound 1/√(k−2).
func SeqRSEBound(k int) float64 {
	return 1 / math.Sqrt(float64(k-2))
}

// WeakAdversaryExpectation is the closed-form expected estimate under the
// weak adversary hiding j=r elements: n·(k−1)/(k+r−1) (Table 1).
func WeakAdversaryExpectation(n float64, k, r int) float64 {
	return n * float64(k-1) / float64(k+r-1)
}

// WeakAdversaryRSEBound is the closed-form weak-adversary RSE bound:
// √(1/(k−2)) + r/(k−2) ≤ 2/√(k−2) when r ≤ √(k−2) (Table 1).
func WeakAdversaryRSEBound(k, r int) float64 {
	return math.Sqrt(1/float64(k-2)) + float64(r)/float64(k-2)
}

// MeanOfMinK returns E[M(k)], the expected k-th minimum of n iid U(0,1)
// variables: k/(n+1) (order statistics of the uniform distribution).
func MeanOfMinK(k int, n int) float64 {
	return float64(k) / float64(n+1)
}
