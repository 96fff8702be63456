// Benchmarks mapping one-to-one onto the tables and figures of "Fast
// Concurrent Data Sketches" (PPoPP 2020). Each BenchmarkFigureX/TableX
// exercises the same code path as the corresponding cmd/benchrunner
// experiment, in testing.B form so `go test -bench=. -benchmem` regenerates
// the headline numbers. Shapes (who wins, crossovers) are the reproduction
// target; absolute Mops depend on the host.
package fastsketches

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastsketches/internal/adversary"
	"fastsketches/internal/core"
	"fastsketches/internal/harness"
	"fastsketches/internal/locked"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
)

// feedConcurrent drives n updates through a fresh concurrent Θ sketch with
// the given writer count, returning after all writers finish.
func feedConcurrent(writers, lgK, bufSize int, maxErr float64, n int, base uint64) {
	comp := theta.NewComposable(lgK, DefaultSeed)
	fw := core.New[uint64](comp, core.Config{
		Workers: writers, BufferSize: bufSize, MaxError: maxErr, K: 1 << lgK,
	})
	fw.Start()
	if writers == 1 {
		for i := 0; i < n; i++ {
			fw.Update(0, theta.HashKey(base+uint64(i), DefaultSeed))
		}
	} else {
		var wg sync.WaitGroup
		per := n / writers
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := base + uint64(w*per)
				for i := 0; i < per; i++ {
					fw.Update(w, theta.HashKey(lo+uint64(i), DefaultSeed))
				}
			}(w)
		}
		wg.Wait()
	}
	fw.Close()
}

// feedLocked drives n updates through a fresh lock-based Θ sketch.
func feedLocked(writers, lgK int, n int, base uint64) {
	sk := locked.NewTheta(lgK, DefaultSeed)
	if writers == 1 {
		for i := 0; i < n; i++ {
			sk.Update(base + uint64(i))
		}
		return
	}
	var wg sync.WaitGroup
	per := n / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := base + uint64(w*per)
			for i := 0; i < per; i++ {
				sk.Update(lo + uint64(i))
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFigure1 is the intro scalability comparison: update-only
// workload, b=1, k=4096, concurrent vs lock-protected, across thread counts.
// One op = one update (b.N split across writers).
func BenchmarkFigure1(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Concurrent/threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			feedConcurrent(threads, 12, 1, 1.0, b.N, 1)
		})
		b.Run(fmt.Sprintf("LockBased/threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			feedLocked(threads, 12, b.N, 1)
		})
	}
}

// BenchmarkTable1 is the adversarial error simulation: one op = one
// simulated stream of n=2^15 uniform hashes evaluated under the sequential,
// strong-adversary and weak-adversary estimators.
func BenchmarkTable1(b *testing.B) {
	sim := adversary.NewSimulator(1<<15, 1<<10, 8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Trial()
	}
}

// BenchmarkFigure3 regenerates the strong-adversary region grid.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adversary.Figure3Grid(1<<15, 1<<10, 0.025, 0.040, 31)
	}
}

// BenchmarkFigure4 regenerates the estimator histograms (one op = 100
// simulation trials plus binning).
func BenchmarkFigure4(b *testing.B) {
	sim := adversary.NewSimulator(1<<15, 1<<10, 8, 1)
	for i := 0; i < b.N; i++ {
		seq, _, weak := sim.Run(100)
		adversary.Histogram(seq, 27000, 39000, 60)
		adversary.Histogram(weak, 27000, 39000, 60)
	}
}

// BenchmarkFigure5 runs one pitchfork trial per op: feed 2^14 uniques
// through a single-writer concurrent sketch and read the live estimate.
// The a variant disables the eager phase (e=1.0), b enables it (e=0.04).
func BenchmarkFigure5(b *testing.B) {
	for _, cfg := range []struct {
		name string
		e    float64
		buf  int
	}{{"a_NoEager", 1.0, 16}, {"b_Eager", 0.04, 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			const x = 1 << 14
			for i := 0; i < b.N; i++ {
				comp := theta.NewComposable(12, DefaultSeed)
				fw := core.New[uint64](comp, core.Config{
					Workers: 1, BufferSize: cfg.buf, MaxError: cfg.e, K: 4096,
				})
				fw.Start()
				base := uint64(i) << 44
				for j := 0; j < x; j++ {
					fw.Update(0, theta.HashKey(base+uint64(j), DefaultSeed))
				}
				_ = comp.Estimate() // live query, pre-drain
				fw.Close()
			}
			b.ReportMetric(float64(x), "uniques/op")
		})
	}
}

// BenchmarkFigure6 is the write-only throughput workload at the large-stream
// end (the regime Figure 6b zooms into): one op = one update, k=4096,
// e=0.04, for the paper's writer counts and the lock-based baselines.
func BenchmarkFigure6(b *testing.B) {
	for _, writers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Concurrent/writers=%d", writers), func(b *testing.B) {
			feedConcurrent(writers, 12, 0, 0.04, b.N, 1)
		})
	}
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("LockBased/writers=%d", writers), func(b *testing.B) {
			feedLocked(writers, 12, b.N, 1)
		})
	}
}

// BenchmarkFigure7 is the mixed workload: writers ingest (one op = one
// update) while 10 background readers query with 1ms pauses.
func BenchmarkFigure7(b *testing.B) {
	for _, writers := range []int{1, 2} {
		for _, lock := range []bool{false, true} {
			name := fmt.Sprintf("Concurrent/writers=%d", writers)
			if lock {
				name = fmt.Sprintf("LockBased/writers=%d", writers)
			}
			b.Run(name, func(b *testing.B) {
				stop := make(chan struct{})
				var readers sync.WaitGroup
				var estimate func() float64
				var update func(w int, key uint64)
				var done func()
				if lock {
					sk := locked.NewTheta(12, DefaultSeed)
					estimate = sk.Estimate
					update = func(_ int, k uint64) { sk.Update(k) }
					done = func() {}
				} else {
					comp := theta.NewComposable(12, DefaultSeed)
					fw := core.New[uint64](comp, core.Config{Workers: writers, MaxError: 0.04, K: 4096})
					fw.Start()
					estimate = comp.Estimate
					update = func(w int, k uint64) { fw.Update(w, theta.HashKey(k, DefaultSeed)) }
					done = fw.Close
				}
				for r := 0; r < 10; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							_ = estimate()
							time.Sleep(time.Millisecond)
						}
					}()
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / writers
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						lo := uint64(w * per)
						for i := 0; i < per; i++ {
							update(w, lo+uint64(i))
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				readers.Wait()
				done()
			})
		}
	}
}

// BenchmarkFigure8 contrasts eager (e=0.04, b=5) and no-eager (e=1.0, b=16)
// configurations on a small stream: one op = feed 1024 uniques into a fresh
// sketch (the regime where the adaptation matters).
func BenchmarkFigure8(b *testing.B) {
	const x = 1024
	b.Run("Eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feedConcurrent(1, 12, 5, 0.04, x, uint64(i)<<44)
		}
		b.ReportMetric(float64(x), "uniques/op")
	})
	b.Run("NoEager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feedConcurrent(1, 12, 16, 1.0, x, uint64(i)<<44)
		}
		b.ReportMetric(float64(x), "uniques/op")
	})
}

// BenchmarkTable2 measures single-writer update cost across the k values of
// Table 2 (the throughput side of the tradeoff; the accuracy side is
// regenerated by cmd/benchrunner table2).
func BenchmarkTable2(b *testing.B) {
	for _, lgK := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("Concurrent/k=%d", 1<<lgK), func(b *testing.B) {
			feedConcurrent(1, lgK, 0, 0.04, b.N, 1)
		})
		b.Run(fmt.Sprintf("LockBased/k=%d", 1<<lgK), func(b *testing.B) {
			feedLocked(1, lgK, b.N, 1)
		})
	}
}

// BenchmarkQuantilesError exercises the Section 6.2 workload: concurrent
// quantiles ingestion with live rank queries (one op = one update; a query
// every 1024 updates).
func BenchmarkQuantilesError(b *testing.B) {
	comp := quantiles.NewComposable(128, quantiles.NewRandomBits(1))
	fw := core.New[float64](comp, core.Config{Workers: 1, BufferSize: 64, MaxError: 1})
	fw.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Update(0, float64(i))
		if i&1023 == 0 {
			_ = comp.Quantile(0.5)
		}
	}
	b.StopTimer()
	fw.Close()
}

// BenchmarkSingleShardThetaUpdate is the library's headline hot path
// through the public API: one concurrent Θ sketch, a registry handle at S=1.
func BenchmarkSingleShardThetaUpdate(b *testing.B) {
	reg, err := NewRegistry(RegistryConfig{Shards: 1, ThetaLgK: 12, MaxError: 0.04})
	if err != nil {
		b.Fatal(err)
	}
	h, err := reg.OpenTheta("bench", Spec{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Update(0, uint64(i))
	}
	b.StopTimer()
	reg.Close()
}

// BenchmarkSingleShardQuantilesQuery measures the wait-free merged query
// of a one-shard quantiles sketch.
func BenchmarkSingleShardQuantilesQuery(b *testing.B) {
	reg, err := NewRegistry(RegistryConfig{Shards: 1, QuantilesK: 128})
	if err != nil {
		b.Fatal(err)
	}
	h, err := reg.OpenQuantiles("bench", Spec{})
	if err != nil {
		b.Fatal(err)
	}
	q := h.Sketch()
	for i := 0; i < 1<<18; i++ {
		q.Update(0, float64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Quantile(0.5)
	}
	b.StopTimer()
	reg.Close()
}

// BenchmarkHarnessSweepSmoke keeps the harness itself honest: one op = a
// miniature speed profile end to end.
func BenchmarkHarnessSweepSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.SpeedProfile(harness.SpeedConfig{
			LgMinU: 8, LgMaxU: 10, PPO: 1, MaxTrials: 2, MinTrials: 1,
			Writers: 1, LgK: 8, MaxError: 1.0,
		})
	}
}
