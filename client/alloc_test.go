//go:build !race

package client_test

// TestServedQueryZeroAlloc extends the repository's zero-allocation
// merged-query contract across the wire: with server and client in one
// process over a real loopback TCP connection, a steady-state scalar query
// — client encode, server decode, QueryInto through the connection's
// reusable accumulator, response encode, client decode — must allocate
// (essentially) nothing end to end. testing.AllocsPerRun counts mallocs
// process-wide, so this covers the server's read/serve/write path and the
// client's pooled-call pipeline together. Excluded under -race for the
// same reason as the in-process contract tests: the race-mode sync.Pool
// drops puts at random, making pool misses expected.

import (
	"testing"

	"fastsketches"
	"fastsketches/client"
)

func TestServedQueryZeroAlloc(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 4, Writers: 2})
	cl, err := client.Dial(addr, client.Options{Conns: 1, BatchSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	b := cl.NewBatch(client.Theta, "alloc")
	cb := cl.NewBatch(client.CountMin, "alloc")
	for i := 0; i < 10_000; i++ {
		if err := b.Add(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := cb.Add(uint64(i % 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Flush(); err != nil {
		t.Fatal(err)
	}

	// Warm every reusable piece: connection accumulators server-side, call
	// handles and frame buffers client-side, map buckets on both.
	for i := 0; i < 64; i++ {
		if _, err := cl.ThetaEstimate("alloc"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Count("alloc", uint64(i%64)); err != nil {
			t.Fatal(err)
		}
	}

	// The tolerance absorbs rare runtime-internal allocations (netpoll,
	// scheduler); the contract being pinned is "no per-query allocation on
	// the serving path", which would show up as ≥ 1 alloc/op.
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := cl.ThetaEstimate("alloc"); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.5 {
		t.Errorf("served theta estimate allocates %.2f/op end to end, want ~0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := cl.Count("alloc", 7); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.5 {
		t.Errorf("served count-min lookup allocates %.2f/op end to end, want ~0", allocs)
	}

	// Batched ingest: steady-state Add+Flush reuses the batch buffer, the
	// write path, the connection's decode scratch, and the ack path, so the
	// whole flush is allocation-free.
	ib := cl.NewBatch(client.CountMin, "alloc")
	if allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 512; i++ {
			if err := ib.Add(uint64(i % 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ib.Flush(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.5 {
		t.Errorf("batched ingest allocates %.2f/flush end to end, want ~0", allocs)
	}
}

// TestServedIngestZeroAlloc pins the overhauled ingest hot path: a
// synchronous batch flush — client encode, a lane claim, server decode into
// the connection's scratch, batched writer updates, ack — allocates nothing
// in steady state, for a batch inside one decode block and one spanning
// several, on a multi-lane server.
//
// The pinned family is CountMin because its global sketch is genuinely
// steady-state: Θ and Quantiles keep growing internal structure on a
// changing stream (hash-table growth, compaction levels), which is amortised
// data-structure growth, not per-batch serving overhead. CountMin shares
// the entire transport, lane-claim, and core UpdateBatch path with the
// other families, so a regression anywhere on that path shows up here.
func TestServedIngestZeroAlloc(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 4})
	cl, err := client.Dial(addr, client.Options{Conns: 1, BatchSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const runs = 100
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"small-batch", 64},   // one decode block
		{"large-batch", 4096}, // several decode blocks
	} {
		cb := cl.NewBatch(client.CountMin, "ingest-"+tc.name)
		// Warm: create the sketch and the batch buffer.
		for w := 0; w < 8; w++ {
			for i := 0; i < tc.batch; i++ {
				if err := cb.Add(uint64(i % 64)); err != nil {
					t.Fatal(err)
				}
			}
			if err := cb.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(runs, func() {
			for i := 0; i < tc.batch; i++ {
				if err := cb.Add(uint64(i % 64)); err != nil {
					t.Fatal(err)
				}
			}
			if err := cb.Flush(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0.5 {
			t.Errorf("%s: batch flush allocates %.2f/op end to end, want 0", tc.name, allocs)
		}
	}
}
