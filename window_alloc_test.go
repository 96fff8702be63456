//go:build !race

package fastsketches_test

// TestWindowedQueryZeroAlloc pins the windowing layer's serving-path
// contract: once a window has rotated and its suffix-merge is materialized,
// steady-state windowed queries — the pooled family scalars, the
// caller-owned WindowQueryInto path, and the time-decayed Count-Min read —
// must not allocate. Excluded under -race because the race-mode sync.Pool
// intentionally drops puts at random, so pool misses (and their
// allocations) are expected there.

import (
	"testing"
	"time"

	"fastsketches"
)

func TestWindowedQueryZeroAlloc(t *testing.T) {
	// ThetaLgK 6: each interval puts far more than 2k = 128 Θ hashes below
	// the merged θ, so rotations and queries fold through the selection.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, MaxError: 1, ThetaLgK: 6, QuantilesK: 128, CountMinEpsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// One hour on the system clock never fires during the test, so every
	// rotation below is explicit and the serving state stays stable while
	// AllocsPerRun samples it.
	win := &fastsketches.WindowConfig{Interval: time.Hour, Slots: 4}
	cmWin := &fastsketches.WindowConfig{Interval: time.Hour, Slots: 4, Decay: 0.5}
	th, err := reg.OpenTheta("winalloc", fastsketches.Spec{Window: win})
	if err != nil {
		t.Fatal(err)
	}
	hl, err := reg.OpenHLL("winalloc", fastsketches.Spec{Window: win})
	if err != nil {
		t.Fatal(err)
	}
	qu, err := reg.OpenQuantiles("winalloc", fastsketches.Spec{Window: win})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := reg.OpenCountMin("winalloc", fastsketches.Spec{Window: cmWin})
	if err != nil {
		t.Fatal(err)
	}

	// Two populated intervals plus a live one: the suffix-merge, the decay
	// plane and the live snapshots all participate in every fold below.
	for round := 0; round < 2; round++ {
		for i := 0; i < 1<<10; i++ {
			th.Update(0, uint64(round<<16|i))
			hl.Update(0, uint64(round<<16|i))
			qu.Update(0, float64(i%1024))
			cm.Update(0, uint64(i%256))
		}
		for _, h := range []interface{ RotateNow() bool }{th, hl, qu, cm} {
			if !h.RotateNow() {
				t.Fatal("RotateNow on a declared window returned false")
			}
		}
	}
	for i := 0; i < 1<<10; i++ {
		th.Update(0, uint64(1<<20|i))
		hl.Update(0, uint64(1<<20|i))
		qu.Update(0, float64(i%1024))
		cm.Update(0, uint64(i%256))
	}

	var sinkF float64
	var sinkU uint64
	var sinkOK bool
	thAcc, hlAcc := th.NewAccumulator(), hl.NewAccumulator()
	qAcc, cmAcc := qu.NewAccumulator(), cm.NewAccumulator()
	// AllocsPerRun's warm-up call primes each sketch's accumulator pool and
	// grows the reused buffers to steady state before counting.
	paths := map[string]func(){
		"theta/pooled":        func() { sinkF, sinkOK = th.Sketch().WindowEstimate() },
		"theta/queryinto":     func() { sinkOK = th.WindowQueryInto(thAcc); sinkF = thAcc.Estimate() },
		"hll/pooled":          func() { sinkF, sinkOK = hl.Sketch().WindowEstimate() },
		"hll/queryinto":       func() { sinkOK = hl.WindowQueryInto(hlAcc); sinkF = hlAcc.Estimate() },
		"quantiles/pooled":    func() { sinkF, sinkOK = qu.Sketch().WindowQuantile(0.99) },
		"quantiles/queryinto": func() { sinkOK = qu.WindowQueryInto(qAcc); sinkF = qAcc.Quantile(0.99) },
		"countmin/pooled":     func() { sinkU, sinkOK = cm.Sketch().WindowCount(7) },
		"countmin/queryinto":  func() { sinkOK = cm.WindowQueryInto(cmAcc); sinkU = cmAcc.Estimate(7) },
		"countmin/decayed":    func() { sinkU, sinkOK = cm.Sketch().DecayedCount(7) },
	}
	for name, fn := range paths {
		fn()
		if !sinkOK {
			t.Fatalf("%s: windowed query reported no window enabled", name)
		}
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op steady-state, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkU
}
