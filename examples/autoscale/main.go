// Autoscaling — closing the control loop over the relaxation parameter.
//
// Choosing the shard count S is choosing a point on the paper's
// throughput/staleness trade-off: merged queries miss at most S·r = S·2·N·b
// completed updates while ingest scales with S parallel propagators. Live
// resharding (examples/resharding) made that point movable; this
// walkthrough hands the steering to a policy. A Spec.Autoscale attaches
// a controller that samples the sketch's ingest-pressure counters — items
// entering the propagation plane, and the propagator backlog — and walks S
// through Resize under hysteresis rules: scale up when the per-shard rate
// has exceeded the high-water mark for enough consecutive samples, scale
// down when sustained idleness leaves the backlog empty, never flap
// (separated water marks, sustained streaks, a cooldown between resizes),
// and never let a transition's combined staleness window S_old·r + S_new·r
// exceed the policy cap.
//
// The demo is an API-gateway shape: a Count-Min sketch counts requests per
// endpoint while traffic bursts and lulls. Count-Min never pre-filters, so
// every request exerts propagation pressure — which is exactly the
// pressure more shards parallelise. Watch S climb under the burst and
// settle back during the lull, with the staleness bound S·r moving in
// lockstep.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches"
)

const writers = 4

func main() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards:  2,
		Writers: writers,
	})
	if err != nil {
		panic(err)
	}
	defer reg.Close()

	h, err := reg.OpenCountMin("gateway/requests", fastsketches.Spec{})
	if err != nil {
		panic(err)
	}
	requests := h.Sketch()

	// The policy: per-shard ingest above 200k req/s sustained for two
	// 25ms samples doubles S (up to 8); per-shard ingest below 25k req/s
	// with a drained backlog for two samples halves it (down to 2). The
	// transitional staleness window of any resize is capped at 16·r.
	// (A policy that doesn't depend on the live sketch could equally ride
	// along on the Open call above.)
	if err := h.Apply(fastsketches.Spec{Autoscale: &fastsketches.AutoscalePolicy{
		MinShards: 2, MaxShards: 8,
		HighWater: 200e3, LowWater: 25e3,
		SustainedUp: 2, SustainedDown: 2,
		SampleEvery:               25 * time.Millisecond,
		Cooldown:                  75 * time.Millisecond,
		MaxTransitionalRelaxation: 16 * requests.ShardRelaxation(),
	}}); err != nil {
		panic(err)
	}

	// Traffic: all writers hammer hot endpoints for 700ms (the burst), then
	// trickle for the rest of the run (the lull).
	var sent atomic.Int64
	var lull atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := uint64(0); j < 64; j++ {
					requests.Update(w, (i*64+j)%512) // 512 hot endpoints
				}
				sent.Add(64)
				if lull.Load() {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(w)
	}

	fmt.Println("   t      req/s   S   S·r   phase")
	start := time.Now()
	last := int64(0)
	for time.Since(start) < 1800*time.Millisecond {
		time.Sleep(100 * time.Millisecond)
		if !lull.Load() && time.Since(start) > 700*time.Millisecond {
			lull.Store(true)
		}
		now := sent.Load()
		phase := "burst"
		if lull.Load() {
			phase = "lull"
		}
		fmt.Printf("%5dms %9.0f %3d %5d   %s\n",
			time.Since(start).Milliseconds(), float64(now-last)/0.1,
			requests.Shards(), requests.Relaxation(), phase)
		last = now
	}
	close(stop)
	wg.Wait()

	st, _ := h.AutoscaleStats()
	fmt.Printf("\ncontroller: %d samples, %d scale-ups, %d scale-downs, final S=%d\n",
		st.Samples, st.ScaleUps, st.ScaleDowns, requests.Shards())
	fmt.Printf("total requests counted: %d (N() = %d, within the live staleness bound)\n",
		sent.Load(), requests.N())
	fmt.Println("\nThe controller saw the burst push per-shard pressure past the high-water")
	fmt.Println("mark and bought throughput with staleness (S up, S·r up); the lull let it")
	fmt.Println("buy freshness back (S down, S·r down) — the paper's trade-off, driven live.")
}
