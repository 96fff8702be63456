package server

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"fastsketches"
	"fastsketches/internal/wire"
)

// TestBatchAckImpliesApplied pins the ingest contract: an acked batch's
// items are completed updates — a live query already reflects all but the
// relaxation bound of them, and after the drain exactly all of them — for
// batch sizes on both sides of the decode block, in both wire item types.
func TestBatchAckImpliesApplied(t *testing.T) {
	srv, reg, addr := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	c := dialT(t, addr)
	cm, err := reg.OpenCountMin("acked", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := reg.OpenQuantiles("acked", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, n := range []int{1, 3, 64, applyBlock - 1, applyBlock, applyBlock + 1, 4 * applyBlock, 5000} {
		items := make([]uint64, n)
		for i := range items {
			items[i] = math.Float64bits(float64(i))
		}
		c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "acked", items))
		c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyQuantiles, "acked", items))
		want += uint64(n)
		for _, got := range []struct {
			fam  string
			n, r uint64
		}{
			{"countmin", cm.Sketch().N(), uint64(cm.Relaxation())},
			{"quantiles", qs.Sketch().N(), uint64(qs.Relaxation())},
		} {
			if got.n > want || got.n+got.r < want {
				t.Fatalf("%s: after the ack of a %d-item batch N = %d, want within [%d - %d, %d]", got.fam, n, got.n, want, got.r, want)
			}
		}
	}
	srv.Shutdown()
	reg.Close()
	if n := cm.Sketch().N(); n != want {
		t.Fatalf("countmin: drained N = %d, want %d", n, want)
	}
	if n := qs.Sketch().N(); n != want {
		t.Fatalf("quantiles: drained N = %d, want %d", n, want)
	}
}

// TestIngestObserverTakesEffectLive installs the ingest observer after a
// sketch is already being served: the next batch to that sketch is
// observed, whole, and removing the observer stops the calls.
func TestIngestObserverTakesEffectLive(t *testing.T) {
	srv, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 2})
	c := dialT(t, addr)
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyTheta, "live", make([]uint64, 10)))

	var calls, items, negative atomic.Int64
	srv.SetIngestObserver(func(n, d int64) {
		calls.Add(1)
		items.Add(n)
		if d < 0 {
			negative.Add(1)
		}
	})
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyTheta, "live", make([]uint64, 3000)))
	if calls.Load() != 1 || items.Load() != 3000 || negative.Load() != 0 {
		t.Fatalf("observer saw %d calls, %d items (%d negative durations); want 1 call of 3000 items",
			calls.Load(), items.Load(), negative.Load())
	}
	srv.SetIngestObserver(nil)
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyTheta, "live", make([]uint64, 5)))
	if calls.Load() != 1 {
		t.Fatalf("observer called %d times after removal, want 1", calls.Load())
	}
}

// TestNoGoroutinesPerServedLane ingests into 16 tenants over one connection:
// the server starts no goroutine per sketch or per writer lane, so the
// process grows only by each new sketch's S propagators, never by
// tenants × W.
func TestNoGoroutinesPerServedLane(t *testing.T) {
	const tenants, shards, writers = 16, 1, 8
	_, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: shards, Writers: writers})
	c := dialT(t, addr)
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "warm", make([]uint64, 64)))
	before := runtime.NumGoroutine()
	for i := 0; i < tenants; i++ {
		c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, fmt.Sprintf("tenant%d", i), make([]uint64, 64)))
	}
	grown := runtime.NumGoroutine() - before
	t.Logf("%d tenants × W=%d grew the process by %d goroutines", tenants, writers, grown)
	if grown > tenants*shards+2 {
		t.Fatalf("%d tenants grew the process by %d goroutines, want ≤ %d (S propagators each, nothing per lane)",
			tenants, grown, tenants*shards+2)
	}
}

// TestConnCacheForgetsDroppedSketches pins that a long-lived connection does
// not keep dropped tenants alive: the next cache miss forgets every sketch
// dropped out-of-band.
func TestConnCacheForgetsDroppedSketches(t *testing.T) {
	srv, reg, _ := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	cs := newConnState(srv)
	const live = 32
	for round := 0; round < 3; round++ {
		for i := 0; i < live; i++ {
			if _, err := cs.sketch(wire.FamilyHLL, []byte(fmt.Sprintf("r%d.t%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < live; i++ {
			reg.Drop("hll", fmt.Sprintf("r%d.t%d", round, i))
		}
	}
	if _, err := cs.sketch(wire.FamilyHLL, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if n := len(cs.sketches); n != 1 {
		t.Fatalf("connection cache holds %d sketches after 3 rounds of %d dropped tenants and one miss, want 1", n, live)
	}
}
