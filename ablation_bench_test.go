// Ablation benchmarks for the design choices the paper motivates:
//
//   - pre-filtering via hints (Section 5.1): the paper claims it
//     "significantly reduces the frequency of propagations and associated
//     memory fences" — Ablation_PreFilter removes shouldAdd and measures
//     the cost;
//   - double buffering (Section 5.2): OptParSketch vs ParSketch;
//   - local buffer size b: the throughput/recency knob behind Figure 8;
//   - snapshot publication cost: what the Θ composable pays to make queries
//     a single atomic load.
package fastsketches

import (
	"fmt"
	"testing"

	"fastsketches/internal/core"
	"fastsketches/internal/theta"
)

// noFilterComposable wraps the Θ composable but disables pre-filtering, so
// every update travels through a local buffer to the propagator.
type noFilterComposable struct {
	*theta.Composable
}

func (n noFilterComposable) ShouldAdd(hint uint64, h uint64) bool { return true }

// BenchmarkAblation_PreFilter quantifies the hint optimisation: with
// filtering, once Θ shrinks most updates die at a single comparison; without
// it, every update is buffered, merged and discarded by the global sketch.
func BenchmarkAblation_PreFilter(b *testing.B) {
	b.Run("WithHints", func(b *testing.B) {
		comp := theta.NewComposable(12, DefaultSeed)
		fw := core.New[uint64](comp, core.Config{Workers: 1, BufferSize: 16, MaxError: 1})
		fw.Start()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fw.Update(0, theta.HashKey(uint64(i), DefaultSeed))
		}
		b.StopTimer()
		fw.Close()
	})
	b.Run("NoHints", func(b *testing.B) {
		comp := theta.NewComposable(12, DefaultSeed)
		fw := core.New[uint64](noFilterComposable{comp}, core.Config{Workers: 1, BufferSize: 16, MaxError: 1})
		fw.Start()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fw.Update(0, theta.HashKey(uint64(i), DefaultSeed))
		}
		b.StopTimer()
		fw.Close()
	})
}

// BenchmarkAblation_DoubleBuffering contrasts OptParSketch (writers keep
// ingesting during propagation) with ParSketch (writers block).
func BenchmarkAblation_DoubleBuffering(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeOptimised, core.ModeUnoptimised} {
		b.Run(mode.String(), func(b *testing.B) {
			comp := theta.NewComposable(12, DefaultSeed)
			fw := core.New[uint64](comp, core.Config{Workers: 1, BufferSize: 4, MaxError: 1, Mode: mode})
			fw.Start()
			for i := 0; i < b.N; i++ {
				fw.Update(0, theta.HashKey(uint64(i), DefaultSeed))
			}
			b.StopTimer()
			fw.Close()
		})
	}
}

// BenchmarkAblation_BufferSize sweeps b: larger buffers amortise the
// prop_i handshake but increase the relaxation (staleness) r = 2Nb.
func BenchmarkAblation_BufferSize(b *testing.B) {
	for _, bufSize := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("b=%d", bufSize), func(b *testing.B) {
			comp := theta.NewComposable(12, DefaultSeed)
			fw := core.New[uint64](comp, core.Config{Workers: 1, BufferSize: bufSize, MaxError: 1})
			fw.Start()
			for i := 0; i < b.N; i++ {
				fw.Update(0, theta.HashKey(uint64(i), DefaultSeed))
			}
			b.StopTimer()
			fw.Close()
		})
	}
}

// BenchmarkAblation_EagerLimit sweeps the adaptation point of Section 5.3 on
// a fixed small stream: one op = feed 4096 uniques with the given eager
// limit (0 disables).
func BenchmarkAblation_EagerLimit(b *testing.B) {
	const x = 4096
	for _, limit := range []int{0, 256, 1250, 4096} {
		name := fmt.Sprintf("limit=%d", limit)
		if limit == 0 {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comp := theta.NewComposable(12, DefaultSeed)
				e := 1.0
				if limit > 0 {
					e = 0.04
				}
				fw := core.New[uint64](comp, core.Config{
					Workers: 1, BufferSize: 5, MaxError: e, EagerLimit: limit, K: 4096,
				})
				fw.Start()
				base := uint64(i) << 44
				for j := 0; j < x; j++ {
					fw.Update(0, theta.HashKey(base+uint64(j), DefaultSeed))
				}
				fw.Close()
			}
			b.ReportMetric(float64(x), "uniques/op")
		})
	}
}

// BenchmarkAblation_SnapshotCost measures the composables' query paths: the
// Θ snapshot is one atomic load; the quantiles snapshot is one pointer load
// plus a binary search.
func BenchmarkAblation_SnapshotCost(b *testing.B) {
	b.Run("ThetaEstimate", func(b *testing.B) {
		comp := theta.NewComposable(12, DefaultSeed)
		comp.MergeBuffer([]uint64{theta.HashKey(1, DefaultSeed)})
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += comp.Estimate()
		}
		_ = sink
	})
	b.Run("ThetaCalcHint", func(b *testing.B) {
		comp := theta.NewComposable(12, DefaultSeed)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= comp.CalcHint()
		}
		_ = sink
	})
}

// BenchmarkAblation_WritersOnOneCore shows how the shared-nothing writer
// lanes behave when goroutines outnumber cores — the degenerate deployment
// the paper's dedicated-core assumption excludes.
func BenchmarkAblation_WritersOnOneCore(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			feedConcurrent(writers, 12, 16, 1.0, b.N, 1)
		})
	}
}
