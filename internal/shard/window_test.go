package shard_test

// Sliding-window unit tests: windowed≡manual-ring equivalence per family,
// rotation/expiry accounting, resize-carry interaction, decay semantics,
// lifecycle errors, and checkpoint export/restore of ring slots. Rotations
// are paced deterministically with RotateNow or a ManualClock.

import (
	"testing"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/shard"
)

func manualWindow(slots int) shard.WindowConfig {
	return shard.WindowConfig{
		Interval: time.Hour, // never fires; rotations driven by RotateNow
		Slots:    slots,
		Clock:    clock.NewManual(time.Unix(1<<20, 0)),
	}
}

// windowCM builds an eager CountMin: the live fold is exact for the test's
// volume, so windowed totals can be compared for equality.
func windowCM(t *testing.T, shards int) *shard.CountMin {
	t.Helper()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{Shards: shards, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestWindowRotationAndExpiry(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	if err := sk.EnableWindow(manualWindow(2)); err != nil {
		t.Fatal(err)
	}
	if !sk.WindowEnabled() {
		t.Fatal("WindowEnabled false after EnableWindow")
	}
	// Four intervals of 96 updates each (12 per key); the window covers the
	// live interval plus the last 2 closed ones.
	for interval := 0; interval < 4; interval++ {
		for i := 0; i < 96; i++ {
			sk.Update(0, uint64(i%8))
		}
		wantWin := uint64(96 * min(interval+1, 3))
		if n, ok := sk.WindowN(); !ok || n != wantWin {
			t.Fatalf("interval %d: WindowN = %d,%v; want %d", interval, n, ok, wantWin)
		}
		wantTotal := uint64(96 * (interval + 1))
		if n := sk.N(); n != wantTotal {
			t.Fatalf("interval %d: cumulative N = %d, want %d (expelled slots must reach legacy)", interval, n, wantTotal)
		}
		if !sk.RotateNow() {
			t.Fatal("RotateNow returned false with a window enabled")
		}
	}
	st, ok := sk.WindowStats()
	if !ok || st.Rotations != 4 {
		t.Fatalf("WindowStats rotations = %d,%v; want 4", st.Rotations, ok)
	}
	// Per-key reads: every key saw 4 intervals cumulatively, 2 in the window
	// (live interval is empty after the last rotation).
	if got := sk.Estimate(3); got != 4*12 {
		t.Fatalf("cumulative Estimate = %d, want %d", got, 4*12)
	}
	if got, ok := sk.WindowCount(3); !ok || got != 2*12 {
		t.Fatalf("WindowCount = %d,%v; want %d", got, ok, 2*12)
	}
}

// TestWindowedEqualsManualRing feeds interval batches into a windowed sketch
// of each family and checks every windowed answer against a reference sketch
// fed only the items the window should cover. All folds are exact at this
// volume (eager phase, lossless merges, same seeds), so equality is exact.
func TestWindowedEqualsManualRing(t *testing.T) {
	const slots = 3
	const intervals = 7
	batch := func(iv int) []uint64 {
		items := make([]uint64, 50)
		for i := range items {
			items[i] = uint64(iv*1000 + i)
		}
		return items
	}
	// windowItems returns what the window must cover after `closed` full
	// rotations with the live interval `live` ingested.
	windowItems := func(live int) []uint64 {
		var items []uint64
		for iv := max(0, live-slots); iv <= live; iv++ {
			items = append(items, batch(iv)...)
		}
		return items
	}

	t.Run("theta", func(t *testing.T) {
		sk, err := shard.NewTheta(12, shard.Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sk.Close()
		if err := sk.EnableWindow(manualWindow(slots)); err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < intervals; iv++ {
			for _, it := range batch(iv) {
				sk.Update(0, it)
			}
			got, ok := sk.WindowEstimate()
			if !ok {
				t.Fatal("WindowEstimate not ok")
			}
			ref, err := shard.NewTheta(12, shard.Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range windowItems(iv) {
				ref.Update(0, it)
			}
			if want := ref.Estimate(); got != want {
				t.Fatalf("interval %d: windowed Θ estimate %v, manual ring %v", iv, got, want)
			}
			ref.Close()
			sk.RotateNow()
		}
	})

	t.Run("hll", func(t *testing.T) {
		sk, err := shard.NewHLL(12, shard.Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sk.Close()
		if err := sk.EnableWindow(manualWindow(slots)); err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < intervals; iv++ {
			for _, it := range batch(iv) {
				sk.Update(0, it)
			}
			got, ok := sk.WindowEstimate()
			if !ok {
				t.Fatal("WindowEstimate not ok")
			}
			ref, err := shard.NewHLL(12, shard.Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range windowItems(iv) {
				ref.Update(0, it)
			}
			if want := ref.Estimate(); got != want {
				t.Fatalf("interval %d: windowed HLL estimate %v, manual ring %v", iv, got, want)
			}
			ref.Close()
			sk.RotateNow()
		}
	})

	t.Run("quantiles", func(t *testing.T) {
		sk, err := shard.NewQuantiles(128, shard.Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sk.Close()
		if err := sk.EnableWindow(manualWindow(slots)); err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < intervals; iv++ {
			for _, it := range batch(iv) {
				sk.Update(0, float64(it))
			}
			wantItems := windowItems(iv)
			if n, ok := sk.WindowN(); !ok || n != uint64(len(wantItems)) {
				t.Fatalf("interval %d: WindowN = %d,%v; want %d", iv, n, ok, len(wantItems))
			}
			ref, err := shard.NewQuantiles(128, shard.Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range wantItems {
				ref.Update(0, float64(it))
			}
			for _, phi := range []float64{0, 0.25, 0.5, 0.99, 1} {
				got, ok := sk.WindowQuantile(phi)
				if !ok {
					t.Fatal("WindowQuantile not ok")
				}
				if want := ref.Quantile(phi); got != want {
					t.Fatalf("interval %d: windowed q(%v) = %v, manual ring %v", iv, phi, got, want)
				}
			}
			ref.Close()
			sk.RotateNow()
		}
	})

	t.Run("countmin", func(t *testing.T) {
		sk := windowCM(t, 3)
		defer sk.Close()
		if err := sk.EnableWindow(manualWindow(slots)); err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < intervals; iv++ {
			for _, it := range batch(iv) {
				sk.Update(0, it%16) // heavy keys so counts per key grow
			}
			wantItems := windowItems(iv)
			if n, ok := sk.WindowN(); !ok || n != uint64(len(wantItems)) {
				t.Fatalf("interval %d: WindowN = %d,%v; want %d", iv, n, ok, len(wantItems))
			}
			ref := windowCM(t, 1)
			for _, it := range wantItems {
				ref.Update(0, it%16)
			}
			for key := uint64(0); key < 16; key++ {
				got, ok := sk.WindowCount(key)
				if !ok {
					t.Fatal("WindowCount not ok")
				}
				if want := ref.Estimate(key); got != want {
					t.Fatalf("interval %d: windowed count(%d) = %d, manual ring %d", iv, key, got, want)
				}
			}
			ref.Close()
			sk.RotateNow()
		}
	})
}

func TestWindowResizeCarry(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	if err := sk.EnableWindow(manualWindow(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	// Resize mid-interval: the drained shards' 100 updates move into the
	// window carry, not into legacy — windowed queries must keep them.
	if err := sk.Resize(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		sk.Update(0, uint64(i%8))
	}
	if n, ok := sk.WindowN(); !ok || n != 160 {
		t.Fatalf("WindowN after mid-interval resize = %d,%v; want 160", n, ok)
	}
	if n := sk.N(); n != 160 {
		t.Fatalf("cumulative N after resize = %d, want 160", n)
	}
	// The rotation closes the whole interval — carry included — into one
	// slot; two more rotations expel it and the windowed total drops to 0.
	sk.RotateNow()
	if n, ok := sk.WindowN(); !ok || n != 160 {
		t.Fatalf("WindowN after rotation = %d,%v; want 160", n, ok)
	}
	sk.RotateNow()
	sk.RotateNow()
	if n, ok := sk.WindowN(); !ok || n != 0 {
		t.Fatalf("WindowN after expiry = %d,%v; want 0", n, ok)
	}
	if n := sk.N(); n != 160 {
		t.Fatalf("cumulative N after expiry = %d, want 160 (expelled slot must fold into legacy)", n)
	}
}

func TestWindowDecay(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	cfg := manualWindow(4)
	cfg.Decay = 0.5
	if err := sk.EnableWindow(cfg); err != nil {
		t.Fatal(err)
	}
	const key = 7
	addN := func(n int) {
		for i := 0; i < n; i++ {
			sk.Update(0, key)
		}
	}
	// Interval 1: 100 of key, rotate → decayed = 100 (just-closed, weight 1).
	addN(100)
	sk.RotateNow()
	if got, ok := sk.DecayedCount(key); !ok || got != 100 {
		t.Fatalf("decayed after 1 rotation = %d,%v; want 100", got, ok)
	}
	// Interval 2: 100 more, rotate → decayed = 0.5·100 + 100 = 150.
	addN(100)
	sk.RotateNow()
	if got, ok := sk.DecayedCount(key); !ok || got != 150 {
		t.Fatalf("decayed after 2 rotations = %d,%v; want 150", got, ok)
	}
	// Live updates count at weight 1 on top of the decayed plane.
	addN(40)
	if got, ok := sk.DecayedCount(key); !ok || got != 190 {
		t.Fatalf("decayed with live updates = %d,%v; want 190", got, ok)
	}
	// The windowed (undecayed) count still sums the raw window.
	if got, ok := sk.WindowCount(key); !ok || got != 240 {
		t.Fatalf("windowed count = %d,%v; want 240", got, ok)
	}
}

func TestWindowDecayRequiresScalableFamily(t *testing.T) {
	sk, err := shard.NewTheta(10, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	cfg := manualWindow(2)
	cfg.Decay = 0.5
	if err := sk.EnableWindow(cfg); err == nil {
		t.Fatal("EnableWindow with Decay on Θ succeeded; want error (no scalable counters)")
	}
	if sk.WindowEnabled() {
		t.Fatal("window enabled despite config error")
	}
}

func TestWindowDisableCollapsesIntoLegacy(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	if err := sk.EnableWindow(manualWindow(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	sk.RotateNow()
	for i := 0; i < 50; i++ {
		sk.Update(0, uint64(i%8))
	}
	if !sk.DisableWindow() {
		t.Fatal("DisableWindow returned false with a window enabled")
	}
	if sk.WindowEnabled() {
		t.Fatal("WindowEnabled true after DisableWindow")
	}
	if _, ok := sk.WindowN(); ok {
		t.Fatal("WindowN ok after DisableWindow")
	}
	if n := sk.N(); n != 150 {
		t.Fatalf("cumulative N after DisableWindow = %d, want 150", n)
	}
	if sk.DisableWindow() {
		t.Fatal("second DisableWindow returned true")
	}
}

func TestWindowLifecycleErrors(t *testing.T) {
	sk := windowCM(t, 2)
	if err := sk.EnableWindow(manualWindow(2)); err != nil {
		t.Fatal(err)
	}
	if err := sk.EnableWindow(manualWindow(2)); err == nil {
		t.Fatal("second EnableWindow succeeded; want error")
	}
	if _, err := (shard.WindowConfig{Decay: 1.5}).Normalise(); err == nil {
		t.Fatal("Normalise accepted decay 1.5")
	}
	sk.Close()
	if sk.RotateNow() {
		t.Fatal("RotateNow returned true after Close")
	}
	sk2 := windowCM(t, 2)
	sk2.Close()
	if err := sk2.EnableWindow(manualWindow(2)); err == nil {
		t.Fatal("EnableWindow after Close succeeded; want error")
	}
}

func TestWindowBackgroundRotation(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableWindow(shard.WindowConfig{
		Interval: time.Second, Slots: 2, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	// Wait for the rotator loop to arm its tick, then fire it.
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rotator never armed its clock tick")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)
	for {
		if st, ok := sk.WindowStats(); ok && st.Rotations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background rotation never happened")
		}
		time.Sleep(time.Millisecond)
	}
	if n, ok := sk.WindowN(); !ok || n != 100 {
		t.Fatalf("WindowN after background rotation = %d,%v; want 100", n, ok)
	}
}

func TestWindowStatsAges(t *testing.T) {
	sk := windowCM(t, 2)
	defer sk.Close()
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableWindow(shard.WindowConfig{
		Interval: time.Minute, Slots: 2, Clock: clk,
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second)
	st, ok := sk.WindowStats()
	if !ok {
		t.Fatal("WindowStats not ok")
	}
	if st.LiveAge != 20*time.Second || st.RotationLag != 0 {
		t.Fatalf("LiveAge/RotationLag = %v/%v; want 20s/0", st.LiveAge, st.RotationLag)
	}
	clk.Advance(100 * time.Second)
	st, _ = sk.WindowStats()
	if st.LiveAge != 2*time.Minute || st.RotationLag != time.Minute {
		t.Fatalf("LiveAge/RotationLag = %v/%v; want 2m/1m", st.LiveAge, st.RotationLag)
	}
	if st.Interval != time.Minute || st.Slots != 2 || st.Decay != 0 {
		t.Fatalf("WindowStats shape = %+v", st)
	}
}

func TestWindowedQueryZeroAlloc(t *testing.T) {
	sk := windowCM(t, 4)
	defer sk.Close()
	// Θ at 2^6 samples per shard: every interval puts far more than
	// 2k = 128 hashes below θ, so rotations and queries fold through the
	// selection and copy a selected table.
	th, err := shard.NewTheta(6, shard.Config{Shards: 4, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if err := sk.EnableWindow(manualWindow(3)); err != nil {
		t.Fatal(err)
	}
	if err := th.EnableWindow(manualWindow(3)); err != nil {
		t.Fatal(err)
	}
	for iv := 0; iv < 4; iv++ {
		for i := 0; i < 200; i++ {
			sk.Update(0, uint64(i%32))
		}
		for i := 0; i < 1024; i++ {
			th.Update(0, uint64(iv<<16|i))
		}
		sk.RotateNow()
		th.RotateNow()
	}
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%32))
	}
	for i := 0; i < 1024; i++ {
		th.Update(0, uint64(1<<20|i))
	}
	// Caller-owned accumulator path: race-safe to pin (no sync.Pool, whose
	// race-mode build drops puts at random). The pooled Window* scalar path
	// is pinned in the registry-level alloc contract test, which is
	// !race-gated.
	acc, thAcc := sk.NewAccumulator(), th.NewAccumulator()
	var sink uint64
	var sinkF float64
	if allocs := testing.AllocsPerRun(200, func() {
		if !sk.WindowQueryInto(acc) || !th.WindowQueryInto(thAcc) {
			t.Fatal("WindowQueryInto not ok")
		}
		sink, sinkF = acc.Estimate(7), thAcc.Estimate()
	}); allocs != 0 {
		t.Errorf("windowed QueryInto allocates %.1f/op, want 0", allocs)
	}
	_, _ = sink, sinkF
}

func TestWindowCheckpointRoundTrip(t *testing.T) {
	sk := windowCM(t, 3)
	defer sk.Close()
	cfg := manualWindow(3)
	cfg.Decay = 0.5
	if err := sk.EnableWindow(cfg); err != nil {
		t.Fatal(err)
	}
	for iv := 0; iv < 3; iv++ {
		for i := 0; i < 100; i++ {
			sk.Update(0, uint64(i%8))
		}
		sk.RotateNow()
	}
	for i := 0; i < 40; i++ {
		sk.Update(0, uint64(i%8)) // live, uncheckpointed-slot state
	}
	base, slots, decayed := sk.AppendWindowedSnapshot(nil)
	if len(slots) != 3 {
		t.Fatalf("exported %d slots, want 3", len(slots))
	}
	if decayed == nil {
		t.Fatal("no decayed blob exported despite Decay enabled")
	}

	re := windowCM(t, 2)
	defer re.Close()
	if err := re.ImportSnapshot(base); err != nil {
		t.Fatal(err)
	}
	if err := re.RestoreWindow(cfg, slots, decayed); err != nil {
		t.Fatal(err)
	}
	if n := re.N(); n != 340 {
		t.Fatalf("restored cumulative N = %d, want 340", n)
	}
	// The window after restore covers the restored closed slots (the live
	// interval's 40 updates went into the base blob → legacy).
	if n, ok := re.WindowN(); !ok || n != 300 {
		t.Fatalf("restored WindowN = %d,%v; want 300", n, ok)
	}
	// Decayed plane restored verbatim: 0.25·100 + 0.5·100 + 100 per window
	// over keys — per key 1/8 of that.
	wantDecayed, ok := sk.DecayedCount(3)
	if !ok {
		t.Fatal("source DecayedCount not ok")
	}
	wantDecayed -= 40 / 8 // source counts its live updates; restore moved them to legacy
	if got, ok := re.DecayedCount(3); !ok || got != wantDecayed {
		t.Fatalf("restored DecayedCount = %d,%v; want %d", got, ok, wantDecayed)
	}
	// Restoring onto an already windowed sketch errors.
	if err := re.RestoreWindow(cfg, nil, nil); err == nil {
		t.Fatal("RestoreWindow on a windowed sketch succeeded; want error")
	}
}
