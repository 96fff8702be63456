package fastsketches_test

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
)

// The paper's object is one concurrent sketch: writer goroutines each own a
// lane and ingest while any goroutine queries it wait-free. A registry with
// one shard serves exactly that, one sketch per name and family. Close
// drains every buffer, so the answers printed here are exact.
func Example() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 1, Writers: 4, MaxError: 0.04, // exact until 2/0.04² = 1250 items
	})
	if err != nil {
		panic(err)
	}
	// Open* fails only on an invalid Spec, and a zero Spec declares nothing.
	users, _ := reg.OpenTheta("users", fastsketches.Spec{})
	latency, _ := reg.OpenQuantiles("latency-ms", fastsketches.Spec{})
	hits, _ := reg.OpenCountMin("hits", fastsketches.Spec{})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // writer w drives lane w of every sketch
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 1000; i += 4 {
				users.Update(w, uint64(i))
				users.Update(w, uint64(i)) // duplicates don't count
				latency.Update(w, float64(i))
				hits.Sketch().UpdateString(w, "GET /index")
				if i%4 == 0 {
					hits.Sketch().UpdateString(w, "GET /health")
				}
			}
		}(w)
	}
	// A live query may miss at most r = 2·N·b of the completed updates.
	fmt.Printf("live queries trail ingestion by at most r = %d updates\n", users.Relaxation())
	wg.Wait()
	reg.Close()

	q := latency.Sketch()
	fmt.Printf("distinct users: %.0f\n", users.Sketch().Estimate())
	fmt.Printf("latency: n=%d min=%.0f max=%.0f\n", q.N(), q.Summary().Min(), q.Summary().Max())
	fmt.Printf("hits: index=%d health=%d\n",
		hits.Sketch().EstimateString("GET /index"), hits.Sketch().EstimateString("GET /health"))
	// Output:
	// live queries trail ingestion by at most r = 128 updates
	// distinct users: 1000
	// latency: n=1000 min=0 max=999
	// hits: index=1000 health=250
}

// The simplest use: one writer, live distinct counting.
func ExampleRegistry_OpenTheta() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 1, Writers: 1, ThetaLgK: 12, MaxError: 0.04,
	})
	if err != nil {
		panic(err)
	}
	sk, _ := reg.OpenTheta("users", fastsketches.Spec{})
	for i := uint64(0); i < 1000; i++ {
		sk.Update(0, i)
		sk.Update(0, i) // duplicates don't count
	}
	reg.Close()
	fmt.Printf("distinct: %.0f\n", sk.Sketch().Estimate())
	// Output: distinct: 1000
}

// Quantiles over a value stream, queried after draining.
func ExampleRegistry_OpenQuantiles() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 1, Writers: 1, QuantilesK: 128,
	})
	if err != nil {
		panic(err)
	}
	q, _ := reg.OpenQuantiles("latency-ms", fastsketches.Spec{})
	for i := 0; i < 1000; i++ {
		q.Update(0, float64(i))
	}
	reg.Close()
	s := q.Sketch().Summary()
	fmt.Printf("min=%.0f max=%.0f\n", s.Min(), s.Max())
	// Output: min=0 max=999
}

// Count-Min answers per-key frequency queries.
func ExampleRegistry_OpenCountMin() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 1, Writers: 1, CountMinEpsilon: 0.001, CountMinDelta: 0.01,
	})
	if err != nil {
		panic(err)
	}
	hits, _ := reg.OpenCountMin("hits", fastsketches.Spec{})
	cm := hits.Sketch()
	for i := 0; i < 300; i++ {
		cm.UpdateString(0, "GET /index")
		if i%3 == 0 {
			cm.UpdateString(0, "GET /health")
		}
	}
	reg.Close()
	fmt.Printf("index=%d health=%d\n",
		cm.EstimateString("GET /index"), cm.EstimateString("GET /health"))
	// Output: index=300 health=100
}

// Sequential Θ sketches support set operations.
func ExampleThetaIntersect() {
	a := fastsketches.NewThetaSketch(12, 0)
	b := fastsketches.NewThetaSketch(12, 0)
	for i := uint64(0); i < 3000; i++ {
		a.Update(i)        // A = [0, 3000)
		b.Update(i + 1000) // B = [1000, 4000)
	}
	inter := fastsketches.ThetaIntersect(a, b)
	fmt.Printf("|A∩B| = %.0f\n", inter.Estimate())
	// Output: |A∩B| = 2000
}

// Striping a sketch over S shards buys ingest throughput (one propagator per
// shard) at a merged-query staleness of S·r. Resize moves S live under write
// fire with an exact drain, and an autoscale policy walks S from the
// sketch's ingest pressure; a manual clock paces its samples here.
func Example_sharding() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	if err != nil {
		panic(err)
	}
	defer reg.Close()
	visitors, _ := reg.OpenTheta("visitors", fastsketches.Spec{})
	report := func(what string, s, bound int) {
		fmt.Printf("%-10s S=%d, merged staleness ≤ %d\n", what, s, bound)
	}
	report("visitors", visitors.Shards(), visitors.Relaxation())

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 3000; i += 2 {
				visitors.Update(w, uint64(i))
			}
		}(w)
	}
	for _, s := range []int{8, 2} { // resize while the writers run
		if err := visitors.Resize(s); err != nil {
			panic(err)
		}
		report("resized", visitors.Shards(), visitors.Relaxation())
	}
	wg.Wait()
	if err := visitors.Resize(1); err != nil { // drains the stream exactly
		panic(err)
	}
	fmt.Printf("visitors: %.0f\n", visitors.Sketch().Estimate())

	mc := clock.NewManual(time.Unix(0, 0))
	requests, err := reg.OpenCountMin("requests", fastsketches.Spec{
		Autoscale: &fastsketches.AutoscalePolicy{
			MinShards: 1, MaxShards: 8, HighWater: 1000,
			SustainedUp: 1, SustainedDown: 1,
			SampleEvery: time.Second, Cooldown: time.Nanosecond, Clock: mc,
		},
	})
	if err != nil {
		panic(err)
	}
	// tick lets one sampling period pass: the controller samples, resizes if
	// the policy says so, and re-arms its timer.
	tick := func() {
		for mc.Waiters() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		mc.Advance(time.Second)
		for mc.Waiters() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	tick() // the first sample is the baseline
	// A burst of 10,000 requests a second, then a lull with nothing left to
	// merge.
	for i := 0; i < 3; i++ {
		for k := 0; k < 10_000; k++ {
			requests.Update(0, uint64(k%64))
		}
		tick()
		report("burst", requests.Shards(), requests.Relaxation())
	}
	for i := 0; i < 3; i++ {
		for requests.Pressure().Backlog() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		tick()
		report("lull", requests.Shards(), requests.Relaxation())
	}
	fmt.Printf("requests: %d\n", requests.Sketch().N())
	// Output:
	// visitors   S=2, merged staleness ≤ 128
	// resized    S=8, merged staleness ≤ 512
	// resized    S=2, merged staleness ≤ 128
	// visitors: 3000
	// burst      S=4, merged staleness ≤ 512
	// burst      S=8, merged staleness ≤ 1024
	// burst      S=8, merged staleness ≤ 1024
	// lull       S=4, merged staleness ≤ 512
	// lull       S=2, merged staleness ≤ 256
	// lull       S=1, merged staleness ≤ 128
	// requests: 30000
}

// A view moves the O(S) merge off the query path: queries read one
// pre-merged accumulator that a refresher republishes, at the price of one
// refresh interval of staleness. A window serves the last Slots closed
// intervals beside the cumulative answer, and Count-Min can decay them too.
// RefreshViewNow and RotateNow stand in for the clocks here. A checkpoint
// carries every sketch, its Spec and its window ring into a new registry.
func Example_views() {
	cfg := fastsketches.RegistryConfig{Shards: 2, Writers: 1}
	reg, err := fastsketches.NewRegistry(cfg)
	if err != nil {
		panic(err)
	}
	defer reg.Close()
	users, _ := reg.OpenTheta("dashboard/users", fastsketches.Spec{
		View: &fastsketches.ViewConfig{RefreshEvery: time.Hour},
	})
	for i := 0; i < 1000; i++ {
		users.Update(0, uint64(i))
	}
	fmt.Printf("view before refresh: %.0f\n", users.Sketch().Estimate())
	users.Sketch().RefreshViewNow()
	fmt.Printf("view after refresh:  %.0f\n", users.Sketch().Estimate())

	api, _ := reg.OpenCountMin("api/requests", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 3, Decay: 0.5},
	})
	const key = 42
	show := func(when string, cm *fastsketches.CountMinHandle) {
		win, _ := cm.Sketch().WindowCount(key)
		dec, _ := cm.Sketch().DecayedCount(key)
		fmt.Printf("%-12s window=%-5d decayed=%-5d cumulative=%d\n", when, win, dec, cm.Sketch().Estimate(key))
	}
	for i, n := range []int{8000, 4000, 2000, 1000} {
		for j := 0; j < n; j++ {
			api.Update(0, key)
		}
		api.RotateNow() // close the interval exactly into the ring
		show(fmt.Sprintf("interval %d:", i+1), api)
	}

	var ckpt bytes.Buffer
	if err := reg.Checkpoint(&ckpt); err != nil {
		panic(err)
	}
	restored, err := fastsketches.NewRegistry(cfg)
	if err != nil {
		panic(err)
	}
	defer restored.Close()
	if err := restored.Restore(&ckpt); err != nil {
		panic(err)
	}
	api2, _ := restored.OpenCountMin("api/requests", fastsketches.Spec{})
	show("restored:", api2)
	users2, _ := restored.OpenTheta("dashboard/users", fastsketches.Spec{})
	fmt.Printf("restored view: %.0f (view on: %v)\n", users2.Sketch().Estimate(), users2.ViewEnabled())
	// Output:
	// view before refresh: 0
	// view after refresh:  1000
	// interval 1:  window=8000  decayed=8000  cumulative=8000
	// interval 2:  window=12000 decayed=8000  cumulative=12000
	// interval 3:  window=14000 decayed=6000  cumulative=14000
	// interval 4:  window=7000  decayed=4000  cumulative=15000
	// restored:    window=7000  decayed=4000  cumulative=15000
	// restored view: 1000 (view on: true)
}
