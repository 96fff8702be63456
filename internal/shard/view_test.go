package shard_test

// Materialized-view unit tests: double-buffer publication, staleness
// fallback, resize interaction, lifecycle errors, refresher shutdown, and
// the zero-allocation contract of the view query path. Refreshes are paced
// deterministically with a ManualClock.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/shard"
)

// eagerCM builds a CountMin whose eager phase comfortably covers the test's
// update volume, so the live fold is exact and any missing weight in a
// query must come from view staleness — never from relaxation.
func eagerCM(t *testing.T, shards int) *shard.CountMin {
	t.Helper()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{Shards: shards, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestViewServesPublishedStateUntilRefreshed(t *testing.T) {
	sk := eagerCM(t, 2)
	defer sk.Close()
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableView(shard.ViewConfig{
		RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	if !sk.ViewEnabled() {
		t.Fatal("ViewEnabled false after EnableView")
	}
	acc := sk.NewAccumulator()
	sk.QueryInto(acc)
	if got := acc.N(); got != 100 {
		t.Fatalf("initial view N = %d, want 100 (EnableView publishes synchronously)", got)
	}

	// New updates land in the live shards but not in the published view.
	for i := 0; i < 50; i++ {
		sk.Update(0, uint64(i%8))
	}
	sk.QueryInto(acc)
	if got := acc.N(); got != 100 {
		t.Fatalf("stale view N = %d, want 100 (view must not see unrefreshed updates)", got)
	}

	if !sk.RefreshViewNow() {
		t.Fatal("RefreshViewNow returned false with a view enabled")
	}
	sk.QueryInto(acc)
	if got := acc.N(); got != 150 {
		t.Fatalf("refreshed view N = %d, want 150", got)
	}

	if !sk.DisableView() {
		t.Fatal("DisableView returned false with a view enabled")
	}
	if sk.DisableView() {
		t.Fatal("second DisableView returned true")
	}
	sk.QueryInto(acc)
	if got := acc.N(); got != 150 {
		t.Fatalf("live fold after DisableView N = %d, want 150", got)
	}
}

func TestViewExpiresToLiveFold(t *testing.T) {
	sk := eagerCM(t, 2)
	defer sk.Close()
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	clk := clock.NewManual(time.Unix(1<<20, 0))
	// RefreshEvery an hour so the background tick never fires during the
	// test; MaxAge a minute so advancing the clock expires the view.
	if err := sk.EnableView(shard.ViewConfig{
		RefreshEvery: time.Hour, MaxAge: time.Minute, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sk.Update(0, uint64(i%8))
	}
	acc := sk.NewAccumulator()
	sk.QueryInto(acc)
	if got := acc.N(); got != 100 {
		t.Fatalf("fresh view N = %d, want 100", got)
	}
	clk.Advance(2 * time.Minute) // beyond MaxAge, below RefreshEvery
	if lag := sk.ViewLag(); lag != 2*time.Minute {
		t.Fatalf("ViewLag = %v, want 2m", lag)
	}
	sk.QueryInto(acc)
	if got := acc.N(); got != 150 {
		t.Fatalf("expired view should fall back to live fold: N = %d, want 150", got)
	}
	// A manual refresh re-arms the view with fresh content.
	sk.RefreshViewNow()
	if lag := sk.ViewLag(); lag != 0 {
		t.Fatalf("ViewLag after refresh = %v, want 0", lag)
	}
	sk.QueryInto(acc)
	if got := acc.N(); got != 150 {
		t.Fatalf("re-refreshed view N = %d, want 150", got)
	}
}

func TestViewAcrossResize(t *testing.T) {
	sk := eagerCM(t, 2)
	defer sk.Close()
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableView(shard.ViewConfig{
		RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	acc := sk.NewAccumulator()
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	sk.RefreshViewNow()

	// Resize retires the ingest epoch: its exact state moves to the legacy
	// accumulator. A refresh after the resize must fold that legacy — a view
	// built only from the new epoch's (empty) shards would report 0.
	if err := sk.Resize(4); err != nil {
		t.Fatal(err)
	}
	sk.RefreshViewNow()
	sk.QueryInto(acc)
	if got := acc.N(); got != 100 {
		t.Fatalf("post-resize view N = %d, want 100 (legacy fold missing from view)", got)
	}

	for i := 0; i < 60; i++ {
		sk.Update(0, uint64(i%8))
	}
	sk.RefreshViewNow()
	sk.QueryInto(acc)
	if got := acc.N(); got != 160 {
		t.Fatalf("view after resize + more updates N = %d, want 160", got)
	}
	// Per-key estimates never went through the view (single-shard path) and
	// must still sum legacy + current owning shards.
	if got := sk.Estimate(0); got == 0 {
		t.Fatal("per-key estimate lost counts across resize")
	}
}

func TestViewLifecycleErrors(t *testing.T) {
	sk := eagerCM(t, 2)
	clk := clock.NewManual(time.Unix(1<<20, 0))
	cfg := shard.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: clk}
	if err := sk.EnableView(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sk.EnableView(cfg); err == nil {
		t.Fatal("second EnableView did not error")
	}
	sk.Close()
	if sk.ViewEnabled() {
		t.Fatal("view still enabled after Close")
	}
	if err := sk.EnableView(cfg); err == nil {
		t.Fatal("EnableView after Close did not error")
	}
	if sk.RefreshViewNow() {
		t.Fatal("RefreshViewNow returned true after Close")
	}
	if sk.ViewLag() != 0 {
		t.Fatal("ViewLag non-zero with no view")
	}
}

func TestViewRefresherGoroutineStopsOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		sk := eagerCM(t, 2)
		if err := sk.EnableView(shard.ViewConfig{RefreshEvery: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		sk.Update(0, 1)
		if i%2 == 0 {
			sk.DisableView()
		}
		sk.Close() // must stop the refresher when DisableView was skipped
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked: %d running, baseline %d", n, base)
	}
}

func TestViewQueryPathZeroAlloc(t *testing.T) {
	// 2^8 samples per shard: the view's fold selects down from well over
	// 2k = 512 hashes below θ, and every query copies the flat run it left.
	sk, err := shard.NewTheta(8, shard.Config{Shards: 8, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	for i := 0; i < 4096; i++ {
		sk.Update(0, uint64(i))
	}
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableView(shard.ViewConfig{
		RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	// Caller-owned accumulator path: race-safe to pin (no sync.Pool, whose
	// race-mode build drops puts at random). The pooled path is pinned in
	// the registry-level alloc contract test, which is !race-gated.
	acc := sk.NewAccumulator()
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() {
		sk.QueryInto(acc)
		sink = acc.Estimate()
	}); allocs != 0 {
		t.Errorf("view QueryInto allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestViewConcurrentSmoke(t *testing.T) {
	// Writers, a fast refresher, queriers and a resize all racing — run
	// under -race this exercises the double-buffer handshake; the full bound
	// assertion lives in the adversary StressViewUnderFire suite.
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards: 4, Writers: 2, MaxError: 1, BufferSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.EnableView(shard.ViewConfig{RefreshEvery: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				sk.Update(lane, uint64(i%64))
			}
		}(lane)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := sk.NewAccumulator()
			for !stop.Load() {
				sk.QueryInto(acc)
				_ = acc.N()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			sk.RefreshViewNow()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := sk.Resize(2); err != nil {
		t.Error(err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	sk.Close()
	// After Close the fold is exact; the view is gone, so live N must equal
	// the final view-free fold (sanity that teardown did not corrupt state).
	acc := sk.NewAccumulator()
	sk.QueryInto(acc)
	if acc.N() == 0 {
		t.Fatal("all updates lost")
	}
}
