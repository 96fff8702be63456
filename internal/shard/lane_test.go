package shard_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches/internal/shard"
)

// newLaneSketch is an exact-counting Count-Min with one shard: N() after
// Close is the precise number of items every successful claimer ingested.
func newLaneSketch(t *testing.T, writers int) *shard.CountMin {
	t.Helper()
	cm, err := shard.NewCountMin(0.01, 0.01, shard.Config{Shards: 1, Writers: writers})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestLanePoolCloseWithWedgedHolder pins Close against a lane holder wedged
// mid-batch: a claimer waiting for the only lane gives up with ok=false as
// soon as Close starts, Close itself waits until the holder releases, and
// the holder's whole batch is in the drained state.
func TestLanePoolCloseWithWedgedHolder(t *testing.T) {
	cm := newLaneSketch(t, 1)
	keys := make([]uint64, 64)
	lane, ok := cm.AcquireLane()
	if !ok {
		t.Fatal("claim refused on an open sketch")
	}
	gate := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		cm.UpdateBatch(lane, keys)
		<-gate // wedged between the batch's two halves
		cm.UpdateBatch(lane, keys)
		cm.ReleaseLane(lane)
	}()

	waiter := make(chan bool, 1)
	go func() {
		_, ok := cm.AcquireLane()
		waiter <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the pool
	closeDone := make(chan struct{})
	go func() { cm.Close(); close(closeDone) }()

	select {
	case ok := <-waiter:
		if ok {
			t.Fatal("a claimer got the lane while its holder was wedged")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a waiting claimer did not give up after Close started")
	}
	if _, ok := cm.AcquireLane(); ok {
		t.Fatal("a claim after Close started succeeded")
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned while a lane was still held")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the holder released")
	}
	<-holderDone
	if n := cm.N(); n != 2*uint64(len(keys)) {
		t.Fatalf("drained N = %d, want %d: the held batch did not land before the drain", n, 2*len(keys))
	}
}

// TestLanePoolExclusive shares W=2 lanes among 8 claimers: no lane is ever
// held twice at once (the counter check, and -race on the lane scratch),
// and every claimed batch is in the drained total.
func TestLanePoolExclusive(t *testing.T) {
	const writers, claimers, rounds, batch = 2, 8, 200, 16
	cm := newLaneSketch(t, writers)
	var inUse [writers]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]uint64, batch)
			for r := 0; r < rounds; r++ {
				lane, ok := cm.AcquireLane()
				if !ok {
					t.Error("claim refused on an open sketch")
					return
				}
				if n := inUse[lane].Add(1); n != 1 {
					t.Errorf("lane %d held by %d claimers at once", lane, n)
				}
				cm.UpdateBatch(lane, keys)
				inUse[lane].Add(-1)
				cm.ReleaseLane(lane)
			}
		}()
	}
	wg.Wait()
	cm.Close()
	if n, want := cm.N(), uint64(claimers*rounds*batch); n != want {
		t.Fatalf("drained N = %d, want %d", n, want)
	}
}

// TestLanePoolClaimRacesClose closes the sketch while claimers are
// mid-fire: Close never hangs, no claim succeeds once it has started, and
// every batch whose claim succeeded is in the drained total.
func TestLanePoolClaimRacesClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		cm := newLaneSketch(t, 3)
		var landed atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				keys := make([]uint64, 64)
				for i := 0; ; i++ {
					closedBefore := cm.Closed()
					lane, ok := cm.AcquireLane()
					if !ok {
						if !cm.Closed() {
							t.Error("claim refused before Close started")
						}
						return
					}
					if closedBefore {
						t.Error("claim granted after Close started")
					}
					n := 1 + (g+i)%len(keys)
					cm.UpdateBatch(lane, keys[:n])
					landed.Add(uint64(n))
					cm.ReleaseLane(lane)
				}
			}(g)
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		cm.Close()
		wg.Wait()
		if n := cm.N(); n != landed.Load() {
			t.Fatalf("round %d: drained N = %d, claimed batches ingested %d", round, n, landed.Load())
		}
	}
}
