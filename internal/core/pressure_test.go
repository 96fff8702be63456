package core_test

// Tests for the ingest-pressure instrumentation (PressureSample): the cheap
// atomic counters the ops layer samples. The contract under test:
// Ingested/Merged are monotonic, Backlog never goes negative, eager updates
// count immediately, filtered items count in neither counter, and after
// Close both counters equal the post-filter stream length exactly.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fastsketches/internal/core"
)

// countGlobal is a trivial composable that accepts everything and counts
// what reaches it, so Merged can be cross-checked against ground truth.
type countGlobal struct {
	merged atomic.Int64
}

func (g *countGlobal) MergeBuffer(items []uint64)              { g.merged.Add(int64(len(items))) }
func (g *countGlobal) DirectUpdate(uint64)                     { g.merged.Add(1) }
func (g *countGlobal) CalcHint() uint64                        { return 1 }
func (g *countGlobal) ShouldAdd(hint uint64, item uint64) bool { return true }

// filterOddGlobal drops odd items at the pre-filter, to pin that filtered
// items exert no pressure.
type filterOddGlobal struct{ countGlobal }

func (g *filterOddGlobal) ShouldAdd(hint uint64, item uint64) bool { return item%2 == 0 }

func TestPressureExactAfterClose(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeOptimised, core.ModeUnoptimised} {
		g := &countGlobal{}
		fw := core.New[uint64](g, core.Config{Workers: 2, BufferSize: 4, MaxError: 1, Mode: mode})
		fw.Start()
		const per = 1001 // deliberately not a multiple of b: a partial buffer drains in Close
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					fw.Update(w, uint64(i))
				}
			}(w)
		}
		wg.Wait()
		fw.Close()
		p := fw.Pressure()
		if p.Ingested != 2*per || p.Merged != 2*per {
			t.Errorf("%v: pressure after close = %+v, want Ingested == Merged == %d", mode, p, 2*per)
		}
		if p.Merged != g.merged.Load() {
			t.Errorf("%v: Merged = %d, but the global sketch saw %d items", mode, p.Merged, g.merged.Load())
		}
		if p.Backlog() != 0 {
			t.Errorf("%v: backlog after close = %d, want 0", mode, p.Backlog())
		}
	}
}

func TestPressureEagerPhaseCountsImmediately(t *testing.T) {
	g := &countGlobal{}
	fw := core.New[uint64](g, core.Config{Workers: 1, BufferSize: 4, MaxError: 0.1, EagerLimit: 100})
	fw.Start()
	defer fw.Close()
	for i := 0; i < 50; i++ { // well inside the eager limit
		fw.Update(0, uint64(i))
		p := fw.Pressure()
		if p.Ingested != int64(i+1) || p.Merged != int64(i+1) {
			t.Fatalf("after %d eager updates: pressure = %+v, want both %d", i+1, p, i+1)
		}
	}
}

func TestPressureFilteredItemsExertNoPressure(t *testing.T) {
	g := &filterOddGlobal{}
	fw := core.New[uint64](g, core.Config{Workers: 1, BufferSize: 4, MaxError: 1})
	fw.Start()
	const n = 1000
	for i := 0; i < n; i++ {
		fw.Update(0, uint64(i))
	}
	fw.Close()
	if p := fw.Pressure(); p.Ingested != n/2 || p.Merged != n/2 {
		t.Errorf("pressure with odd items filtered = %+v, want Ingested == Merged == %d", p, n/2)
	}
}

func TestPressureBacklogBeforePropagation(t *testing.T) {
	// With the propagator never started, one full buffer publishes but is
	// never merged: the backlog must expose exactly those b items, and the
	// Close drain must clear it.
	g := &countGlobal{}
	fw := core.New[uint64](g, core.Config{Workers: 1, BufferSize: 4, MaxError: 1})
	for i := 0; i < 4; i++ { // exactly b: fills and publishes one buffer
		fw.Update(0, uint64(i))
	}
	p := fw.Pressure()
	if p.Ingested != 4 || p.Merged != 0 || p.Backlog() != 4 {
		t.Errorf("pre-propagation pressure = %+v (backlog %d), want 4 ingested, 0 merged", p, p.Backlog())
	}
	fw.Close()
	if p := fw.Pressure(); p.Ingested != 4 || p.Merged != 4 {
		t.Errorf("post-close pressure = %+v, want both 4", p)
	}
}

func TestPressureMonotonicUnderConcurrency(t *testing.T) {
	// A sampler races writers and the propagator: successive samples must be
	// monotonic in both counters with a non-negative backlog — the invariant
	// the ops sweeper's idle detection and a scrape's rates rely on.
	g := &countGlobal{}
	const writers = 4
	fw := core.New[uint64](g, core.Config{Workers: writers, BufferSize: 4, MaxError: 1})
	fw.Start()
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
			p := fw.Pressure()
			if p.Ingested < last.Ingested || p.Merged < last.Merged {
				t.Errorf("pressure went backwards: %+v after %+v", p, last)
				return
			}
			if p.Ingested-p.Merged < 0 {
				t.Errorf("negative backlog in sample %+v", p)
				return
			}
			last = p
			runtime.Gosched()
		}
	}()
	const per = 8000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fw.Update(w, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	fw.Close()
	close(stop)
	sampler.Wait()
	if p := fw.Pressure(); p.Ingested != writers*per || p.Merged != writers*per {
		t.Errorf("final pressure = %+v, want both %d", p, writers*per)
	}
}
