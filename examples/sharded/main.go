// Sharded multi-tenant registry — the service skeleton the ROADMAP's
// "millions of users" north star calls for.
//
// One Registry serves many named sketches behind a single API. Each named
// sketch is striped across S independent concurrent sketches (each with its
// own propagator and writer lanes, exactly the paper's OptParSketch), and
// queries merge per-shard snapshots on demand:
//
//   - ingestion scales with S: one background propagator per shard, small
//     per-shard writer counts;
//   - merged queries are wait-free and stay live during ingestion, missing
//     at most S·r = S·2·N·b completed updates (the combined relaxation
//     bound — the paper's Theorem 1 applied shard-wise and summed);
//   - per-key queries (Count-Min frequencies) touch only the owning shard
//     and keep the tighter single-shard bound r;
//   - readers that want to avoid even the pooled accumulator can own one:
//     NewAccumulator + QueryInto give a zero-allocation merged query per
//     reader goroutine (see the monitor below);
//   - the shard count is live-tunable: Handle.Resize reshards a named
//     sketch under full write fire — see examples/resharding for that
//     walkthrough.
//
// The walkthrough simulates a tiny analytics service: per-tenant unique
// visitors (Θ), request latency quantiles, and per-endpoint hit counts,
// ingested by several writer goroutines while a monitor goroutine reads
// merged live values.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fastsketches"
)

const (
	shards  = 4
	writers = 4
	perLane = 100_000
)

func main() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards:   shards,
		Writers:  writers,
		MaxError: 0.04, // exact answers until each shard's substream exceeds 2/e²
	})
	if err != nil {
		panic(err)
	}

	// Tenants are created lazily on first Open — no schema, just names and
	// an (empty here) declarative Spec.
	visitorsH, err := reg.OpenTheta("tenant-42/visitors", fastsketches.Spec{})
	if err != nil {
		panic(err)
	}
	latencyH, err := reg.OpenQuantiles("tenant-42/latency-ms", fastsketches.Spec{})
	if err != nil {
		panic(err)
	}
	endpointsH, err := reg.OpenCountMin("tenant-42/endpoint-hits", fastsketches.Spec{})
	if err != nil {
		panic(err)
	}
	visitors, latency, endpoints := visitorsH.Sketch(), latencyH.Sketch(), endpointsH.Sketch()

	fmt.Printf("registry: %d shards × %d lanes; merged-query staleness ≤ S·r = %d updates (Θ)\n",
		shards, writers, visitors.Relaxation())

	var completed atomic.Int64
	stop := make(chan struct{})

	// Monitor: live merged queries while ingestion runs. Wait-free — it
	// never blocks a propagator or a writer. The visitors query goes
	// through the caller-owned plane: one Union accumulator owned by this
	// goroutine, reset and refolded by QueryInto on every report, so the
	// monitor allocates nothing however often it polls (the pooled query
	// methods used for latency/endpoints are equally allocation-free, just
	// pool-managed).
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		visitorsAcc := visitors.NewAccumulator()
		lastReport := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if done := completed.Load(); done-lastReport >= int64(perLane*writers/4) {
				lastReport = done
				visitors.QueryInto(visitorsAcc)
				fmt.Printf("  live @ %7d updates/stream: visitors≈%8.0f  p99≈%6.1fms  /checkout=%d\n",
					done, visitorsAcc.Estimate(), latency.Quantile(0.99),
					endpoints.EstimateString("/checkout"))
			}
			runtime.Gosched() // don't busy-steal cycles from the writers
		}
	}()

	// Writers: lane w of every sketch is owned by goroutine w.
	endpointNames := []string{"/", "/login", "/search", "/checkout"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < perLane; i++ {
				visitors.Update(w, base+uint64(i))            // unique user IDs
				latency.Update(w, float64((i*i)%200)+1)       // deterministic spread
				endpoints.UpdateString(w, endpointNames[i%4]) // hot endpoints
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monitorWG.Wait()

	// Close drains every shard: afterwards merged queries have no
	// relaxation residue and summarise the full streams.
	reg.Close()

	n := float64(writers * perLane)
	fmt.Println("\nafter Close (exact drain):")
	fmt.Printf("  visitors: estimate %.0f of %d true uniques (RE %+.4f)\n",
		visitors.Estimate(), writers*perLane, visitors.Estimate()/n-1)
	fmt.Printf("  latency:  N=%d  p50=%.0fms  p99=%.0fms\n",
		latency.N(), latency.Quantile(0.5), latency.Quantile(0.99))
	fmt.Printf("  endpoints: /checkout=%d (true %d, one-sided error ≤ ε·N per shard)\n",
		endpoints.EstimateString("/checkout"), writers*perLane/4)
	fmt.Printf("  tenants registered: %v\n", reg.Names())
}
