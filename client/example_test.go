package client_test

import (
	"fmt"
	"net"
	"sync"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/server"
)

// The served path: sketchd is a registry behind internal/server, and
// agents ship batches to it through the client library. Both agents write
// the same named sketch, so the Θ merge deduplicates their overlapping key
// ranges. A flushed batch is acknowledged only once every item in it has
// completed, so a served query honours the same S·r bound as an in-process
// one; these streams stay inside the eager phase, where that bound is 0.
func Example() {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := server.New(reg)
	go srv.Serve(ln)
	defer reg.Close()
	defer srv.Shutdown()

	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 2})
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	var wg sync.WaitGroup
	for agent := 0; agent < 2; agent++ { // agent a sends keys [500a, 500a+1000)
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			users, latency := cl.NewBatch(client.Theta, "users"), cl.NewBatch(client.Quantiles, "latency-ms")
			for k := base; k < base+1000; k++ {
				check(users.Add(k))
				check(latency.AddFloat(float64(k)))
			}
			check(users.Flush())
			check(latency.Flush())
		}(uint64(agent) * 500)
	}
	wg.Wait()

	est, err := cl.ThetaEstimate("users")
	check(err)
	n, err := cl.QuantilesN("latency-ms")
	check(err)
	fmt.Printf("distinct users: %.0f, latency samples: %d\n", est, n)

	// Every admin change is a Spec: here, a live resize to four shards.
	check(cl.Apply(client.Theta, "users", client.Spec{Shards: 4}))
	inf, err := cl.Info(client.Theta, "users")
	check(err)
	est, err = cl.ThetaEstimate("users")
	check(err)
	fmt.Printf("after resize: S=%d, merged staleness ≤ %d, distinct users: %.0f\n",
		inf.Spec.Shards, inf.Relaxation, est)
	// Output:
	// distinct users: 1500, latency samples: 2000
	// after resize: S=4, merged staleness ≤ 256, distinct users: 1500
}
