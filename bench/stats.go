package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; it sorts a copy. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean; every class weighs equally whatever its
// magnitude, which is why the latency figures use it over classes whose
// medians span three decades (a µs view read, a ms Θ fold).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// spinIters fixes the reference spin's work; ≈50 ms on the reference box.
const spinIters = 24_000_000

var spinSink uint64

// refSpin runs the fixed integer loop that brackets every pass and returns
// its duration in milliseconds. The loop touches no memory, so a slow spin
// means the core itself was taken away or throttled, not that the program
// under test changed.
func refSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

const (
	disturbedOver = 1.08 // a spin this much over the run's fastest marks the passes beside it
	minUndisturb  = 5    // fewer undisturbed passes than this: use all of them
)

// undisturbed returns the indices of the passes the run values are taken
// from. Pass i ran between spins[i] and spins[i+1]; it is disturbed when
// either ran more than 8% slower than the run's fastest spin. When fewer
// than five passes are undisturbed the run uses all of them. Passes are
// chosen by their spins alone, never by what they measured. The second
// result is the share of disturbed passes.
func undisturbed(spins []float64) (keep []int, disturbedFrac float64) {
	n := len(spins) - 1
	if n < 1 {
		return nil, 0
	}
	limit := slices.Min(spins) * disturbedOver
	for i := 0; i < n; i++ {
		if max(spins[i], spins[i+1]) <= limit {
			keep = append(keep, i)
		}
	}
	disturbedFrac = float64(n-len(keep)) / float64(n)
	if len(keep) < minUndisturb {
		keep = keep[:0]
		for i := 0; i < n; i++ {
			keep = append(keep, i)
		}
	}
	return keep, disturbedFrac
}
