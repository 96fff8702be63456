//go:build !race

package fastsketches_test

// TestCheckpointZeroAllocSteadyState enforces the checkpoint encoder's
// allocation contract: once the reused entry/name/output buffers have grown
// to the working size, taking a checkpoint allocates nothing — the capture
// folds through the same pooled accumulators merged queries use, the record
// sort is in-place, and every byte is appended into the pre-grown buffer.
// Excluded under -race because the race-mode sync.Pool intentionally drops
// puts at random, so pool misses (and their allocations) are expected there.

import (
	"errors"
	"io"
	"testing"
	"time"

	"fastsketches"
)

func TestCheckpointZeroAllocSteadyState(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	th, h := openTheta(t, reg, "za.theta"), openHLL(t, reg, "za.hll")
	q, cm := openQuantiles(t, reg, "za.q"), openCountMin(t, reg, "za.cm")
	for i := 0; i < 20_000; i++ {
		k := uint64(i)
		th.Update(i%2, k)
		h.Update(i%2, k)
		q.Update(i%2, float64(i))
		cm.Update(i%2, k%101)
	}

	// Quiesce before measuring: propagation is asynchronous, and each shard
	// propagator's merge republishes its snapshot with a fresh O(retained)
	// hash copy — that is the ingest path's allocation, not the checkpoint
	// encoder's. A real resize (4→3) drains every published and partial
	// writer buffer synchronously, so no propagator fires mid-measurement.
	if err := errors.Join(
		th.Resize(3), h.Resize(3), q.Resize(3), cm.Resize(3),
	); err != nil {
		t.Fatal(err)
	}
	// Every record carries its whole Spec: give one a view and a
	// lifecycle, so the Spec encode is on the measured path. The hour-long
	// timer keeps the refresher idle.
	if err := cm.Apply(fastsketches.Spec{
		View:    &fastsketches.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1},
		IdleTTL: time.Hour, Pinned: true,
	}); err != nil {
		t.Fatal(err)
	}

	// Warm-up: grows the internal checkpoint buffer, the entry scratch and
	// the pooled accumulators to steady-state size.
	for i := 0; i < 3; i++ {
		if err := reg.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	if avg := testing.AllocsPerRun(50, func() {
		if err := reg.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Checkpoint allocates %v allocs/op, want 0", avg)
	}

	// The caller-owned append path with a pre-grown dst is zero-alloc too.
	dst := reg.AppendCheckpoint(nil)
	if avg := testing.AllocsPerRun(50, func() {
		dst = reg.AppendCheckpoint(dst[:0])
	}); avg != 0 {
		t.Errorf("steady-state AppendCheckpoint allocates %v allocs/op, want 0", avg)
	}
}
