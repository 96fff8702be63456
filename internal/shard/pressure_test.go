package shard_test

// Tests for the sharded pressure plane: Sharded.Pressure sums per-shard
// framework counters plus the carried base of retired epochs, so the
// sketch-level counters stay monotonic and exact across live resizes —
// the property the ops sweeper's idle detection depends on.

import (
	"runtime"
	"sync"
	"testing"

	"fastsketches/internal/core"
	"fastsketches/internal/shard"
)

func TestShardedPressureExactAfterClose(t *testing.T) {
	// Count-Min never pre-filters, so every update must land in both
	// counters once drained.
	sk, err := shard.NewCountMin(0.01, 0.01, shard.Config{Shards: 4, Writers: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sk.Update(w, uint64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	sk.Close()
	if p := sk.Pressure(); p.Ingested != 2*per || p.Merged != 2*per {
		t.Errorf("pressure after close = %+v, want Ingested == Merged == %d", p, 2*per)
	}
}

func TestShardedPressureMonotonicAcrossResize(t *testing.T) {
	// A resize retires an epoch; its counters must move into the base on the
	// same epoch swap, so sketch-level samples never go backwards and the
	// grand total stays exact.
	sk, err := shard.NewCountMin(0.01, 0.01, shard.Config{Shards: 2, Writers: 1, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	const phase = 4000
	for i := 0; i < phase; i++ {
		sk.Update(0, uint64(i))
	}
	before := sk.Pressure()
	for _, s := range []int{8, 1, 3} {
		if err := sk.Resize(s); err != nil {
			t.Fatal(err)
		}
		p := sk.Pressure()
		if p.Ingested < before.Ingested || p.Merged < before.Merged {
			t.Fatalf("pressure went backwards across Resize(%d): %+v after %+v", s, p, before)
		}
		before = p
		for i := 0; i < phase; i++ {
			sk.Update(0, uint64(i))
		}
	}
	sk.Close()
	if p := sk.Pressure(); p.Ingested != 4*phase || p.Merged != 4*phase {
		t.Errorf("final pressure = %+v, want Ingested == Merged == %d", p, 4*phase)
	}
}

func TestShardedPressureSamplerRacesResize(t *testing.T) {
	// Live samplers race writers and a resizer; every sample must be
	// monotonic with non-negative backlog, across epoch swaps. Run under
	// -race in CI.
	sk, err := shard.NewCountMin(0.01, 0.01, shard.Config{Shards: 2, Writers: 2, MaxError: 1, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var last core.PressureSample
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := sk.Pressure()
			if p.Ingested < last.Ingested || p.Merged < last.Merged {
				t.Errorf("pressure went backwards: %+v after %+v", p, last)
				return
			}
			last = p
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				sk.Update(w, uint64(w)<<40|uint64(i))
			}
		}(w)
	}
	for _, s := range []int{6, 1, 4} {
		if err := sk.Resize(s); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
}

func TestShardRelaxationAcrossResize(t *testing.T) {
	// ShardRelaxation is the per-shard r = 2·N·b: independent of S, so it
	// must survive any resize unchanged (the transitional r_old + r_new
	// window is only observable mid-drain, which Resize does not expose
	// once it has returned).
	sk, err := shard.NewTheta(12, shard.Config{Shards: 4, Writers: 3, BufferSize: 5, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	want := 2 * 3 * 5
	if got := sk.ShardRelaxation(); got != want {
		t.Fatalf("ShardRelaxation = %d, want %d", got, want)
	}
	if got := sk.Relaxation(); got != 4*want {
		t.Fatalf("Relaxation = %d, want S·r = %d", got, 4*want)
	}
	if err := sk.Resize(7); err != nil {
		t.Fatal(err)
	}
	if got := sk.ShardRelaxation(); got != want {
		t.Errorf("ShardRelaxation after resize = %d, want %d", got, want)
	}
	if got := sk.Relaxation(); got != 7*want {
		t.Errorf("Relaxation after resize = %d, want %d", got, 7*want)
	}
}
