package shard_test

// Relaxation-bound stress suite: adversary.Stress drives the sharded
// registry with concurrent writers and queriers, and relax.Oracle checks
// EVERY merged answer against the bound in force — S·r = S·2·N·b in steady
// state, the transitional bounds while a resize or rotation drains, and
// exactness during the eager phase. Run with -race in CI.

import (
	"testing"

	"fastsketches/internal/adversary"
	"fastsketches/internal/wire"
)

// stress runs one scenario and holds it to the oracle's envelope: queries
// ran, none missed more than the bound in force or invented updates, and so
// the most stale answer stayed within the widest bound.
func stress(t *testing.T, cfg adversary.StressConfig) adversary.StressReport {
	t.Helper()
	rep, err := adversary.Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d queries (%d settled), %d resizes, %d refreshes, %d rotations (%d expulsions); bound %d, max staleness %d (%.2f of the bound)",
		rep.Queries, rep.PostResizeQueries, rep.Resizes, rep.Refreshes, rep.Rotations, rep.Expulsions,
		rep.Bound, rep.MaxStaleness, float64(rep.MaxStaleness)/float64(rep.Bound))
	if rep.Queries == 0 {
		t.Fatal("queriers never ran")
	}
	if rep.MaxStaleness > int64(rep.Bound) {
		t.Errorf("max staleness %d exceeds the bound %d", rep.MaxStaleness, rep.Bound)
	}
	if rep.LowerViolations != 0 {
		t.Errorf("%d/%d answers missed more completed updates than the bound in force (transitional %d; max staleness %d) — state was lost",
			rep.LowerViolations, rep.Queries, rep.Bound, rep.MaxStaleness)
	}
	if rep.UpperViolations != 0 {
		t.Errorf("%d/%d answers exceeded the updates started — state was invented or double-counted",
			rep.UpperViolations, rep.Queries)
	}
	return rep
}

// families are the rows of the engine's family table.
var families = map[string]wire.Family{
	"countmin": wire.FamilyCountMin, "quantiles": wire.FamilyQuantiles, "theta": wire.FamilyTheta,
}

func TestStressCountTotalsBound(t *testing.T) {
	cfg := adversary.StressConfig{
		Shards: 4, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 20000, Queriers: 2,
		MaxError: 1.0, // lazy from the first update
	}
	if testing.Short() {
		cfg.UpdatesPerWriter = 4000
	}
	stress(t, cfg)
}

// eagerExact holds an eager-prologue run to exactness before the lazy phase.
func eagerExact(t *testing.T, cfg adversary.StressConfig) {
	t.Helper()
	rep := stress(t, cfg)
	t.Logf("eager prologue: %d exact queries", rep.EagerQueries)
	if rep.EagerQueries == 0 {
		t.Fatal("eager prologue never ran")
	}
	if rep.EagerViolations != 0 {
		t.Errorf("%d/%d eager-phase queries were not exact", rep.EagerViolations, rep.EagerQueries)
	}
}

func TestStressCountTotalsEagerPrologueExact(t *testing.T) {
	eagerExact(t, adversary.StressConfig{
		Shards: 4, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 8000, Queriers: 2,
		MaxError: 0.1, // eager for ≈2/e² updates per shard first
	})
}

func TestStressThetaDistinctBound(t *testing.T) {
	stress(t, adversary.StressConfig{
		Shards: 4, Writers: 4, BufferSize: 4, Queriers: 2,
		MaxError: 1.0, Family: wire.FamilyTheta,
	})
}

func TestStressThetaEagerPrologueExact(t *testing.T) {
	eagerExact(t, adversary.StressConfig{
		Shards: 2, Writers: 2, BufferSize: 4, Queriers: 2,
		MaxError: 0.1, Family: wire.FamilyTheta,
	})
}

func TestStressAccumulatorReuseUnderContention(t *testing.T) {
	// The pooled merge-on-query plane under heavy querier contention: many
	// goroutines hammer the sketch's accumulator pool (Estimate/N) and their
	// own reused accumulators (QueryInto) while writers ingest. Every answer
	// must stay inside the c1 − S·r ≤ got ≤ c2 envelope — a pool bug that
	// handed one accumulator to two queriers, or a Reset that left residue,
	// would breach it (upper: double-counted fold; lower: clobbered fold).
	cfg := adversary.StressConfig{
		Shards: 4, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 15000, Queriers: 8,
		MaxError: 1.0,
	}
	if testing.Short() {
		cfg.UpdatesPerWriter = 3000
		cfg.Queriers = 4
	}
	for name, fam := range families {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Family = fam
			stress(t, cfg)
		})
	}
}

func TestStressManyShardsManyWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	stress(t, adversary.StressConfig{
		Shards: 8, Writers: 8, BufferSize: 8,
		UpdatesPerWriter: 30000, Queriers: 4,
		MaxError: 1.0,
	})
}

func TestStressAutoscaleUnderFire(t *testing.T) {
	// Closed-loop resize-under-fire: the resizes are not scheduled but
	// decided live by an autoscale.Controller sampling the sketch's real
	// pressure counters (ticks paced deterministically by a manual clock).
	// Queriers race merged reads on both query planes throughout; every
	// answer must stay inside the per-epoch staleness envelope
	// c1 − 2·Max·r ≤ got ≤ c2 while the controller may be resizing, and
	// inside the tight Min·r envelope once the loop has settled. The
	// control loop itself must also behave: the burst must produce at
	// least one scale-up, the lull at least one scale-down to MinShards,
	// and no transition may breach the policy's transitional staleness cap.
	cfg := adversary.StressConfig{
		Shards: 2, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 20000, Queriers: 4,
		Autoscale: adversary.StressAutoscale{MinShards: 1, MaxShards: 8},
	}
	if testing.Short() {
		cfg.UpdatesPerWriter = 4000
		cfg.Queriers = 2
	}
	rep := stress(t, cfg)
	t.Logf("autoscale: %d ups / %d downs, final S=%d", rep.ScaleUps, rep.ScaleDowns, rep.FinalShards)
	if rep.ScaleUps == 0 {
		t.Error("the write burst never scaled up: the controller is not reacting to measured pressure")
	}
	if rep.ScaleDowns == 0 || rep.FinalShards != cfg.Autoscale.MinShards {
		t.Errorf("the lull did not settle at MinShards: %d downs, final S=%d, want S=%d",
			rep.ScaleDowns, rep.FinalShards, cfg.Autoscale.MinShards)
	}
	if rep.CapViolations != 0 {
		t.Errorf("%d controller transitions breached the transitional staleness cap", rep.CapViolations)
	}
	if rep.PostResizeQueries == 0 {
		t.Error("no queries ran against the settled MinShards·r bound")
	}
}

func TestStressResizeUnderFire(t *testing.T) {
	// Resize-under-fire: the resizer cycles the shard group through
	// grow → collapse → grow while writers hammer and queriers race merged
	// reads on both query planes. Every answer must stay inside the
	// transitional envelope c1 − (S_old + S_new)·r ≤ got ≤ c2 while drains
	// may be in flight, and inside the plain S_final·r envelope once the
	// last Resize has returned — an upper breach would mean a drain
	// double-counted retired updates, a lower breach that it lost them.
	cfg := adversary.StressConfig{
		Shards: 2, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 20000, Queriers: 4,
		Schedule: []int{8, 1, 6},
	}
	if testing.Short() {
		cfg.UpdatesPerWriter = 4000
		cfg.Queriers = 2
	}
	for name, fam := range families {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Family = fam
			if rep := stress(t, cfg); rep.Resizes != int64(len(cfg.Schedule)) {
				t.Errorf("completed %d resizes, want %d", rep.Resizes, len(cfg.Schedule))
			}
		})
	}
}

func TestStressWindowRotateUnderFire(t *testing.T) {
	// Window-rotation-under-fire: queriers race the windowed total on both
	// query planes while writers hammer the sketch, a conductor expels ring
	// slots by explicit rotation (manual clock, so no rotation ever fires
	// behind the checker's back), and — in the "spanning-resize" leg — a
	// resizer cycles the shard group through grow → collapse → grow
	// underneath the rotator. Every answer must stay inside the documented
	// window envelope c1 − floor − bound ≤ got ≤ c2: floor the expelled-slot
	// ground truth (the "S·r + one rotation interval" bound with the
	// interval term made exact), bound the transitional 2·max(S)·r while
	// rotations or resizes may be in flight and the tight S_final·r once
	// both have quiesced. A lower breach means a rotation or its interplay
	// with a resize drain lost live-interval weight; an upper breach means a
	// slot was double-counted across the suffix-merge, carry and live
	// planes. On Count-Min the decayed plane is enabled throughout, racing
	// its scale-and-fold against every rotation; on Θ the leg races the
	// disjoint-shard fold (FoldShards) of every slot and of the live epoch.
	base := adversary.StressConfig{
		Shards: 2, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 20000, Queriers: 4,
	}
	if testing.Short() {
		base.UpdatesPerWriter = 4000
		base.Queriers = 2
	}
	for leg, schedule := range map[string][]int{
		"rotation-only":   nil,
		"spanning-resize": {8, 1, 6},
	} {
		t.Run(leg, func(t *testing.T) {
			for name, fam := range families {
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.Family, cfg.Schedule = fam, schedule
					cfg.Window = adversary.StressWindow{Slots: 4}
					if fam == wire.FamilyCountMin {
						cfg.Window.Decay = 0.5
					}
					rep := stress(t, cfg)
					if rep.Expulsions == 0 {
						t.Fatalf("only %d rotations, none expelled a slot: the ring eviction path was never under fire",
							rep.Rotations)
					}
					if rep.Resizes != int64(len(schedule)) {
						t.Errorf("completed %d resizes, want %d", rep.Resizes, len(schedule))
					}
					if rep.PostResizeQueries == 0 {
						t.Error("no queries ran against the settled post-rotation bound")
					}
				})
			}
		})
	}
}

func TestStressViewUnderFire(t *testing.T) {
	// View-under-fire: merged queries are served from a materialized view
	// whose refreshes are paced explicitly by a conductor (manual clock, so
	// no refresh ever happens behind the checker's back), while writers
	// hammer the sketch and a resizer cycles the shard group through
	// grow → collapse → grow. Every answer must stay inside the documented
	// view envelope floor − bound ≤ got ≤ c2: floor is the ground truth one
	// refresh ago (the "+ one refresh interval" term made exact), bound the
	// transitional (S_old+S_new)·r while resizes may be in flight and the
	// tight S_final·r once the last drain has been re-folded into a fresh
	// publication. A lower breach means a refresh lost committed state (for
	// instance the draining epoch's legacy); an upper breach means a fold
	// double-counted. The Θ leg races the copy-on-empty view read.
	cfg := adversary.StressConfig{
		Shards: 2, Writers: 4, BufferSize: 4,
		UpdatesPerWriter: 20000, Queriers: 4,
		Schedule: []int{8, 1, 6},
		View:     true,
	}
	if testing.Short() {
		cfg.UpdatesPerWriter = 4000
		cfg.Queriers = 2
	}
	for name, fam := range families {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Family = fam
			rep := stress(t, cfg)
			if rep.Refreshes < 2 {
				t.Fatalf("only %d refreshes published: the conductor never drove the view", rep.Refreshes)
			}
			if rep.Resizes != int64(len(cfg.Schedule)) {
				t.Errorf("completed %d resizes, want %d", rep.Resizes, len(cfg.Schedule))
			}
			if rep.PostResizeQueries == 0 {
				t.Error("no queries ran against the settled post-resize view bound")
			}
		})
	}
}
