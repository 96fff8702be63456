//go:build !race

package fastsketches_test

// TestMergedQueryZeroAlloc turns the PR's headline claim into an enforced
// contract: steady-state merged queries through the pooled registry path
// (and the caller-owned QueryInto path) must not allocate. CI's test job
// runs the ZeroAlloc tests in a step without the race detector; they are
// excluded under -race because the race-mode sync.Pool intentionally drops
// puts at random, so pool misses (and their allocations) are expected there.

import (
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
)

func TestMergedQueryZeroAlloc(t *testing.T) {
	// 4 shards so the quantiles fold exercises the ping-ponged scratch
	// buffers, not just the first-summary copy.
	assertZeroAllocQueries(t, nil, false)
}

// TestMergedQueryZeroAllocAfterResize extends the contract across live
// resharding: after growing and shrinking the shard group mid-stream, every
// merged query additionally folds the legacy accumulator holding the
// retired epochs' drained state — and must still allocate nothing. This
// pins two properties of the resize path: pooled accumulators carried over
// from before the resize stay correctly sized for the new shard group (the
// pool is family-dimensioned, not shard-dimensioned), and the published
// legacy accumulator is folded via the allocation-free FoldInto hooks, not
// through escaping copies.
func TestMergedQueryZeroAllocAfterResize(t *testing.T) {
	assertZeroAllocQueries(t, []int{8, 2}, false)
}

// TestMergedQueryZeroAllocThroughView extends the contract to the
// materialized-view serving plane: with a view published, every pooled and
// caller-owned merged query folds the single view accumulator instead of S
// shard snapshots — and must still allocate nothing. The sketches stay live
// (closing a sketch tears its view down), the refresher is parked on a
// manual clock with a never-expiring view, and writers are quiescent, so
// each run folds the same published buffer. Pins the whole chain: view
// acquire/release handshake, FoldInto from the view accumulator, pooled
// accumulator reuse.
func TestMergedQueryZeroAllocThroughView(t *testing.T) {
	assertZeroAllocQueries(t, nil, true)
}

// assertZeroAllocQueries loads one sketch per family (S=4) with a fixed
// stream, resizing every family to schedule[p] at the p-th of
// len(schedule)+1 equal stream phases, then either publishes a view over
// the live sketches or closes the registry (closed sketches stay queryable
// and give deterministic per-query work), and requires every merged-query
// path to run allocation-free. The Θ sketch's 2^8 samples per shard put
// well over 2k = 512 of the stream below the merged θ, so its folds run the
// selection and build a flat run that the view and legacy paths copy.
func assertZeroAllocQueries(t *testing.T, schedule []int, view bool) {
	t.Helper()
	const uniques = 1 << 12
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, MaxError: 1, ThetaLgK: 8, QuantilesK: 128, CountMinEpsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	th, hl := openTheta(t, reg, "bench").Sketch(), openHLL(t, reg, "bench").Sketch()
	qu, cm := openQuantiles(t, reg, "bench").Sketch(), openCountMin(t, reg, "bench").Sketch()
	for i, phase := 0, 0; i < uniques; i++ {
		if phase < len(schedule) && i == (phase+1)*uniques/(len(schedule)+1) {
			for _, fam := range []string{"theta", "hll", "quantiles", "countmin"} {
				if err := reg.Apply(fam, "bench", fastsketches.Spec{Shards: schedule[phase]}); err != nil {
					t.Fatal(err)
				}
			}
			phase++
		}
		th.Update(0, uint64(i))
		hl.Update(0, uint64(i))
		qu.Update(0, float64(i%4096))
		cm.Update(0, uint64(i%512))
	}
	if view {
		clk := clock.NewManual(time.Unix(1<<20, 0))
		if err := reg.Apply("", "bench", fastsketches.Spec{View: &fastsketches.ViewConfig{
			RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
		}}); err != nil {
			t.Fatal(err)
		}
	} else {
		reg.Close()
	}

	var sinkF float64
	var sinkU uint64
	thAcc, hlAcc := th.NewAccumulator(), hl.NewAccumulator()
	qAcc, cmAcc := qu.NewAccumulator(), cm.NewAccumulator()
	// AllocsPerRun's warm-up call primes each sketch's accumulator pool and
	// grows the reused buffers to steady state before counting.
	paths := map[string]func(){
		"theta/pooled":        func() { sinkF = th.Estimate() },
		"theta/queryinto":     func() { th.QueryInto(thAcc); sinkF = thAcc.Estimate() },
		"hll/pooled":          func() { sinkF = hl.Estimate() },
		"hll/queryinto":       func() { hl.QueryInto(hlAcc); sinkF = hlAcc.Estimate() },
		"quantiles/pooled":    func() { sinkF = qu.Quantile(0.99) },
		"quantiles/queryinto": func() { qu.QueryInto(qAcc); sinkF = qAcc.Quantile(0.99) },
		"countmin/queryinto":  func() { cm.QueryInto(cmAcc); sinkU = cmAcc.Estimate(7) },
	}
	for name, fn := range paths {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op steady-state, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkU
}
