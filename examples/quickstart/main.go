// Quickstart: the smallest useful program — count distinct elements in a
// stream with multiple concurrent writers and query the estimate live while
// ingestion is running.
//
// Where to go next: examples/sharded runs many named sketches behind the
// sharded Registry (including the zero-allocation QueryInto query plane
// for readers that own their merge accumulator), and examples/resharding
// shows Handle.Resize live-resizing a sketch's shard group — the
// throughput/staleness dial — under full write load.
package main

import (
	"fmt"
	"sync"
	"time"

	"fastsketches"
)

func main() {
	const writers = 4
	const perWriter = 500_000

	sk, err := fastsketches.NewConcurrentTheta(fastsketches.ThetaConfig{
		LgK:      12, // k = 4096 samples → RSE ≈ 1.6%
		Writers:  writers,
		MaxError: 0.04, // stay exact until 2/0.04² = 1250 elements
	})
	if err != nil {
		panic(err)
	}

	// Live queries: a reporting goroutine reads the estimate while the
	// writers are still ingesting — no locks, no coordination.
	stop := make(chan struct{})
	var reporter sync.WaitGroup
	reporter.Add(1)
	go func() {
		defer reporter.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Printf("live estimate: %.0f distinct\n", sk.Estimate())
			}
		}
	}()

	// Each writer goroutine owns one ingestion lane and feeds disjoint keys.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < perWriter; i++ {
				sk.Update(w, base+uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reporter.Wait()

	// Close drains every buffered update; the final estimate reflects the
	// whole stream.
	sk.Close()
	est := sk.Estimate()
	truth := float64(writers * perWriter)
	lo, hi := sk.ConfidenceBounds(2)
	fmt.Printf("final estimate: %.0f (truth %.0f, error %+.2f%%)\n", est, truth, (est/truth-1)*100)
	fmt.Printf("95%% interval:   [%.0f, %.0f]\n", lo, hi)
	fmt.Printf("relaxation r:   a query may trail ingestion by ≤ %d updates\n", sk.Relaxation())
}
