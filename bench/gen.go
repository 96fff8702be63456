package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// splitmix is the seeded key generator (Steele/Lea/Flood splitmix64). Its
// output function is a bijection of the state and the state walks an odd
// stride, so a stream never repeats a key: the true distinct count of n
// draws is n, which is what the Θ/HLL checks compare against.
type splitmix struct{ s uint64 }

const gamma = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) next() uint64 {
	r.s += gamma
	return mix64(r.s)
}

// unit maps 64 random bits to a float64 uniform on [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// laneStream returns the key stream of one writer lane for one seed. Lanes
// take disjoint index ranges of a single splitmix sequence (lane·2^40
// onwards), so the union over lanes is still duplicate-free.
func laneStream(seed uint64, lane int) splitmix {
	return splitmix{s: mix64(seed) + (uint64(lane)<<40)*gamma}
}

// fill writes the next len(dst) keys of the stream into dst.
func (r *splitmix) fill(dst []uint64) {
	for i := range dst {
		dst[i] = r.next()
	}
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s by
// inverting a precomputed cumulative table; any s ≥ 0 is allowed (the
// standard library's sampler needs s > 1, and the tenant skew is s = 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

// rank maps 64 random bits to a rank.
func (z *zipf) rank(bits uint64) int {
	return sort.SearchFloat64s(z.cdf, unit(bits))
}

// dueAt is the fixed-interval open-loop schedule: operation i of a stream
// running at perSecond is due i/perSecond after the start.
func dueAt(i int64, perSecond float64) time.Duration {
	return time.Duration(float64(i) / perSecond * float64(time.Second))
}

// opRand returns the generator of open-loop operation i of a stream, so the
// operation's inputs depend on (seed, stream, i) only and not on which
// worker happens to run it.
func opRand(seed, stream uint64, i int64) splitmix {
	return splitmix{s: mix64(mix64(seed)^stream) + uint64(i)*0xd1342543de82ef95}
}

// sleepPrecise blocks the calling thread for d through nanosleep(2). The Go
// runtime's own timers are serviced with millisecond granularity when the
// process is otherwise idle, which would make an open-loop generator late by
// more than the latencies it measures; a pacing goroutine therefore locks
// itself to a thread (runtime.LockOSThread) and sleeps here.
func sleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the caller re-check the clock
}
