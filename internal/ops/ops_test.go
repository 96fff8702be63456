package ops_test

// Lifecycle-manager tests: idle-TTL eviction driven by the ingest plane's
// Ingested counter (not wall-clock sleeps — a ManualClock paces the idle
// clock), the memory-budget accountant's shrink-before-shed ladder, pinning,
// and the -race stress interleavings (evict vs query vs resize, budget shed
// vs checkpoint).

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
	"fastsketches/internal/ops"
)

func newRegistry(t testing.TB, cfg fastsketches.RegistryConfig) *fastsketches.Registry {
	t.Helper()
	reg, err := fastsketches.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// TestIdleEviction: a sketch whose Ingested counter stops moving is dropped
// once its TTL elapses on the manager's clock; a sketch that keeps ingesting
// is not; a per-sketch Spec.IdleTTL overrides the default; a pinned sketch
// survives any idleness.
func TestIdleEviction(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1, BufferSize: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{IdleTTL: time.Minute, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}

	idle, err := reg.OpenTheta("tenant/idle", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	active, err := reg.OpenTheta("tenant/active", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := reg.OpenTheta("tenant/pinned", fastsketches.Spec{Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	longTTL, err := reg.OpenTheta("tenant/long", fastsketches.Spec{IdleTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	idle.Update(0, 1)
	pinned.Update(0, 1)
	longTTL.Update(0, 1)

	// First sweep starts every idle clock.
	if res := m.Sweep(); res.Evicted != 0 || res.Sketches != 4 {
		t.Fatalf("first sweep: %+v, want 4 sketches, 0 evictions", res)
	}

	// Half a TTL: nobody expires; the active tenant ingests.
	mc.Advance(30 * time.Second)
	active.Update(0, 2)
	if res := m.Sweep(); res.Evicted != 0 {
		t.Fatalf("sweep at TTL/2 evicted %d", res.Evicted)
	}

	// Past the default TTL for everyone who went quiet since their last
	// ingest — but the active tenant wrote after the previous sweep (its
	// Ingested counter moved, refreshing last-activity), the pinned tenant
	// is exempt, and the long-TTL tenant's 1h override has not elapsed.
	mc.Advance(45 * time.Second)
	active.Update(0, 3)
	res := m.Sweep()
	if res.Evicted != 1 {
		t.Fatalf("sweep past TTL: %+v, want exactly the idle tenant evicted", res)
	}
	if _, ok := reg.Info("theta", "tenant/idle"); ok {
		t.Error("idle tenant still registered after eviction")
	}
	for _, name := range []string{"tenant/active", "tenant/pinned", "tenant/long"} {
		if _, ok := reg.Info("theta", name); !ok {
			t.Errorf("%s was evicted; want kept", name)
		}
	}

	// The per-sketch override expires too, and by now the formerly active
	// tenant has been quiet for two hours.
	mc.Advance(2 * time.Hour)
	res = m.Sweep()
	if res.Evicted != 2 {
		t.Fatalf("sweep past override TTL: %+v, want active+long evicted", res)
	}
	if _, ok := reg.Info("theta", "tenant/pinned"); !ok {
		t.Error("pinned tenant evicted; pinning must exempt it")
	}
	if st := m.Stats(); st.Evictions != 3 || st.Sketches != 1 {
		t.Errorf("stats %+v, want 3 cumulative evictions, 1 live sketch", st)
	}
}

// TestBudgetShrinkThenShed: over budget, the accountant first live-resizes
// tenants down to one shard (retired shard state folds into the legacy
// accumulator — compaction, not data loss), and only sheds a tenant that is
// already compact. Pinned tenants are never reclaimed.
func TestBudgetShrinkThenShed(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 4, Writers: 1, BufferSize: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{MemBudget: 1, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}

	a, err := reg.OpenTheta("budget/a", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.OpenTheta("budget/b", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := reg.OpenTheta("budget/pinned", fastsketches.Spec{Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		a.Update(0, i)
		b.Update(0, i)
		keep.Update(0, i)
	}

	res := m.Sweep()
	if res.Shrunk != 2 || res.Shed != 0 {
		t.Fatalf("first sweep: %+v, want both unpinned tenants shrunk, none shed", res)
	}
	if got := a.Shards(); got != 1 {
		t.Errorf("a shrunk to %d shards, want 1", got)
	}
	if got := b.Shards(); got != 1 {
		t.Errorf("b shrunk to %d shards, want 1", got)
	}
	if got := keep.Shards(); got != 4 {
		t.Errorf("pinned tenant resized to %d shards; must be untouched", got)
	}
	if st := m.Stats(); st.ResidentBytes <= st.BudgetBytes {
		t.Errorf("stats %+v: resident not over the 1-byte budget", st)
	}
	if m.ResidentBytes() <= 0 {
		t.Error("ResidentBytes not tracked")
	}

	// Shrinking preserved the data: the shrink drains and folds retired
	// shards, so the merged estimate still covers the full (eager-regime)
	// stream exactly.
	if est := a.Sketch().Estimate(); est != 100 {
		t.Errorf("post-shrink estimate %v, want 100 (compaction must not lose state)", est)
	}

	res = m.Sweep()
	if res.Shed != 2 {
		t.Fatalf("second sweep: %+v, want both compact tenants shed", res)
	}
	if _, ok := reg.Info("theta", "budget/pinned"); !ok {
		t.Error("pinned tenant shed under budget pressure")
	}
	if st := m.Stats(); st.BudgetShrinks != 2 || st.BudgetSheds != 2 {
		t.Errorf("stats %+v, want 2 shrinks and 2 sheds", st)
	}
}

// TestEvictVsQueryVsResize: the sweeper evicting with an aggressive TTL
// races merged queries, re-opens, and live resizes on the same names under
// -race. Queries through retained handles must keep working (a dropped
// sketch still summarises its drained state); resizes may fail when they
// lose the race with an eviction but must not race or wedge.
func TestEvictVsQueryVsResize(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2, BufferSize: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{IdleTTL: time.Millisecond, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}

	const names = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Sweeper: every iteration ages all sketches past the TTL and evicts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mc.Advance(time.Millisecond)
			m.Sweep()
		}
	}()

	// Re-openers/queriers: keep recreating and folding the same names.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("stress/%d", i%names)
				h, err := reg.OpenTheta(name, fastsketches.Spec{})
				if err != nil {
					continue
				}
				acc := h.NewAccumulator()
				h.QueryInto(acc)
				_ = acc.Estimate()
			}
		}()
	}

	// Resizer: walks S on whatever incarnation of each name currently
	// exists; an error (lost race with an eviction) is expected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("stress/%d", i%names)
			_ = reg.Apply("theta", name, fastsketches.Spec{Shards: 1 + i%3})
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := m.Stats(); st.Evictions == 0 {
		t.Error("stress run recorded no evictions; TTL pressure never fired")
	}
}

// TestBudgetShedVsCheckpoint: budget sheds race checkpoint captures. A
// checkpoint taken mid-shed must stay internally consistent — restorable
// into a fresh registry — whichever sketches it caught.
func TestBudgetShedVsCheckpoint(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1, BufferSize: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{MemBudget: 1, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("ck/%d", i%3)
			if h, err := reg.OpenCountMin(name, fastsketches.Spec{}); err == nil {
				h.Update(0, uint64(i))
			}
			m.Sweep() // budget=1: shrink, then shed, whatever is resident
		}
	}()

	var buf []byte
	for i := 0; ; i++ {
		buf = reg.AppendCheckpoint(buf[:0])
		fresh, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(bytes.NewReader(buf)); err != nil {
			t.Fatalf("checkpoint %d not restorable: %v", i, err)
		}
		fresh.Close()
		// Keep scraping checkpoints until the churn loop has finished, so
		// the two sides genuinely overlap.
		select {
		case <-done:
			if i >= 20 {
				goto drained
			}
		default:
		}
	}
drained:
	if st := m.Stats(); st.BudgetSheds == 0 && st.BudgetShrinks == 0 {
		t.Error("stress run never shed nor shrank; budget pressure never fired")
	}
}

// TestHist pins the power-of-two bucketing's totals: negative observations
// clamp to zero, everything lands in count and sum.
func TestHist(t *testing.T) {
	var h ops.Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 1 << 40, -7} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count %d, want 7", h.Count())
	}
	if want := int64(0 + 1 + 2 + 3 + 4 + 1<<40 + 0); h.Sum() != want {
		t.Errorf("sum %d, want %d", h.Sum(), want)
	}
}

// TestManagerConfigValidation: the constructor rejects nonsense.
func TestManagerConfigValidation(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	for _, cfg := range []ops.Config{
		{IdleTTL: -time.Second},
		{MemBudget: -1},
		{SweepEvery: -time.Second},
		{ShrinkToShards: -2},
	} {
		if _, err := ops.NewManager(reg, cfg); err == nil {
			t.Errorf("NewManager(%+v) accepted invalid config", cfg)
		}
	}
}

// TestManagerStartStop: the sweep runs once per interval elapsing on the
// injected clock — inside the Advance that reaches it — never after Stop,
// and Stop is idempotent, including before Start.
func TestManagerStartStop(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{SweepEvery: time.Second, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}
	m.Stop() // before Start: a no-op
	m.Start()
	for i := 1; i <= 3; i++ {
		mc.Advance(time.Second)
		if got := m.Stats().Sweeps; got != int64(i) {
			t.Fatalf("after %d intervals: %d sweeps, want %d", i, got, i)
		}
	}
	m.Stop()
	m.Stop() // idempotent
	mc.Advance(time.Hour)
	if got := m.Stats().Sweeps; got != 3 {
		t.Fatalf("sweeps after Stop: %d, want 3", got)
	}
}
