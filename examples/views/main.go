// Materialized views — buying O(1)-in-S query latency with a refresh
// interval of staleness.
//
// A merged query on a sharded sketch folds one wait-free snapshot per
// shard: O(S) work per query, the right default for occasionally-queried
// sketches and the wrong one for a dashboard polling a wide sketch a
// thousand times a second. A Spec.View moves the fold off the
// query path: a background refresher folds the sketch's entire published
// state into a double-buffered merged accumulator every RefreshEvery and
// publishes it atomically; queries then fold that single accumulator —
// constant cost in S, still zero allocations — and pay at most one
// refresh interval of extra staleness on top of the merged bound S·r.
//
// The demo ingests into an 8-shard Θ sketch, times a polling burst
// against the live O(S) fold, enables a 20ms view and times the same
// burst again, then shows the price: Info reports the view's refresh lag
// (the extra staleness term) alongside the relaxation bound, and fresh
// ingest only becomes visible once the next refresh folds it.
package main

import (
	"fmt"
	"time"

	"fastsketches"
)

const writers = 4

func main() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards:  8,
		Writers: writers,
	})
	if err != nil {
		panic(err)
	}
	defer reg.Close()

	h, err := reg.OpenTheta("dashboard/users", fastsketches.Spec{})
	if err != nil {
		panic(err)
	}
	users := h.Sketch()
	const ingested = 200_000
	for i := 0; i < ingested; i++ {
		users.Update(i%writers, uint64(i))
	}

	poll := func(label string) float64 {
		const polls = 2000
		start := time.Now()
		var est float64
		for i := 0; i < polls; i++ {
			est = users.Estimate()
		}
		perQuery := time.Since(start) / polls
		fmt.Printf("%-28s %8v/query   estimate %.0f\n", label, perQuery, est)
		return float64(perQuery)
	}

	liveNs := poll("live fold (O(S), S=8):")

	// Enable the view: one synchronous refresh (so a view is available
	// immediately), then a background refresher every 20ms.
	if err := h.Apply(fastsketches.Spec{View: &fastsketches.ViewConfig{
		RefreshEvery: 20 * time.Millisecond,
	}}); err != nil {
		panic(err)
	}
	fmt.Printf("\nview enabled on %s/%s\n", h.Family(), h.Name())

	viewNs := poll("through the view (O(1)):")
	fmt.Printf("speedup %.1fx; the O(S) fold now runs on the refresher, not per query\n\n",
		liveNs/viewNs)

	// The price: freshness. New ingest is invisible to the view until the
	// next refresh folds it — bounded by S·r plus one refresh interval.
	inf, _ := reg.Info("theta", "dashboard/users")
	fmt.Printf("staleness bound: S·r = %d completed updates + view lag (now %v)\n",
		inf.Relaxation, inf.ViewLag)
	for i := 0; i < 50_000; i++ {
		users.Update(i%writers, uint64(ingested+i))
	}
	fmt.Printf("right after +50k ingest:     estimate %.0f (view may trail by up to the bound)\n",
		users.Estimate())
	time.Sleep(50 * time.Millisecond) // > one refresh interval
	fmt.Printf("one refresh interval later:  estimate %.0f (the refresher folded the new state)\n\n",
		users.Estimate())

	// Disable: queries return to the live fold, fully fresh, O(S) again.
	h.Apply(fastsketches.Spec{ViewOff: true})
	fmt.Println("view disabled — queries fold live snapshots again")
	fmt.Println("\nThe trade mirrors the paper's: sharding bought ingest throughput with")
	fmt.Println("merged-query staleness (S·r); the view buys query throughput with one")
	fmt.Println("refresh interval more. Both bounds are load-bearing and asserted under")
	fmt.Println("-race (TestStressViewUnderFire).")
}
