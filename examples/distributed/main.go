// Distributed aggregation — the setting that makes sketch *mergeability*
// matter (PowerDrill, Druid, the systems the paper builds toward), now on
// the production serving stack instead of ad-hoc wire code.
//
// An aggregator service (sketchd: internal/server over a Registry) listens
// on real loopback TCP. Several "agent" processes (simulated as goroutines)
// each own a shard of the stream and ship it with the fastsketches/client
// library: every agent runs multiple concurrent sender goroutines, each
// buffering updates into batches that the server fans into the concurrent
// sketch's writer lanes. Global distinct-count queries are answered live by
// merging per-shard snapshots server-side.
//
// Three layers of the paper's story compose here:
//
//   - within a sketch: the concurrent framework parallelises ingestion
//     across writer lanes (the server's lane fan-in drives them);
//   - across agents: mergeability aggregates overlapping shards with error
//     independent of how the stream was partitioned — all agents write the
//     same named sketch, and the Θ merge dedupes the overlap;
//   - across the network: batched ingest amortises round trips, and a
//     served query carries the same S·r staleness bound as an in-process
//     merged query.
package main

import (
	"fmt"
	"net"
	"sync"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/server"
)

const (
	agents          = 5
	sendersPerAgent = 2
	uniquesPerAgent = 200_000
	overlapPerShard = 50_000 // keys shared with the next shard
	sketchName      = "global.users"
)

// runAgent streams its shard of the key space to the aggregator through
// the client library: sendersPerAgent concurrent goroutines, each with its
// own batch buffer (and so its own server-side lane fan-in).
func runAgent(id int, addr string) {
	// Shards overlap: agent i covers [i·(u−o), i·(u−o)+u).
	base := uint64(id) * uint64(uniquesPerAgent-overlapPerShard)

	cl, err := client.Dial(addr, client.Options{Conns: sendersPerAgent, BatchSize: 8192})
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for s := 0; s < sendersPerAgent; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b := cl.NewBatch(client.Theta, sketchName)
			for i := s; i < uniquesPerAgent; i += sendersPerAgent {
				if err := b.Add(base + uint64(i)); err != nil {
					panic(err)
				}
			}
			if err := b.Flush(); err != nil {
				panic(err)
			}
		}(s)
	}
	wg.Wait()

	// Every batch is acked: the agent's updates are *completed*, covered by
	// the served query's S·r staleness bound from here on.
	local, err := cl.ThetaEstimate(sketchName)
	if err != nil {
		panic(err)
	}
	fmt.Printf("agent %d: shard [%d, %d) shipped; live global estimate so far %.0f\n",
		id, base, base+uint64(uniquesPerAgent), local)
}

func main() {
	// The aggregator: a registry served over TCP. Writer lanes match the
	// per-agent sender count; 4 shards buy ingest parallelism at a
	// 4·r staleness window for merged queries.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, Writers: sendersPerAgent,
	})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := server.New(reg)
	go srv.Serve(ln)

	var wg sync.WaitGroup
	for id := 0; id < agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runAgent(id, ln.Addr().String())
		}(id)
	}
	wg.Wait()

	// Final answer over a fresh client, then a graceful drain.
	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		panic(err)
	}
	got, err := cl.ThetaEstimate(sketchName)
	if err != nil {
		panic(err)
	}
	inf, err := cl.Info(client.Theta, sketchName)
	if err != nil {
		panic(err)
	}
	cl.Close()
	srv.Shutdown()
	reg.Close()

	// True union: shards overlap by overlapPerShard with each neighbour.
	truth := float64(agents*uniquesPerAgent - (agents-1)*overlapPerShard)
	fmt.Printf("\nglobal distinct estimate: %.0f (truth %.0f, error %+.2f%%; served at S=%d, staleness ≤ %d)\n",
		got, truth, (got/truth-1)*100, inf.Spec.Shards, inf.Relaxation)
}
