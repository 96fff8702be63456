package fastsketches_test

// Registry-level materialized-view tests, plus the Drop/Close-under-fire
// leak audit: a sketch carrying a live view refresher, dropped (or closed
// with the registry) while writers, queriers, refreshes and live resizes are
// in flight, must neither panic nor leak a goroutine.
// Goroutine accounting is done goleak-style: count, churn, settle-poll back
// to the baseline.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
)

func TestRegistryViewFacades(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	clk := clock.NewManual(time.Unix(1<<20, 0))
	view := fastsketches.Spec{View: &fastsketches.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: clk}}

	// No sketches under the name yet: error, nothing created.
	if err := reg.Apply("", "metrics", view); err == nil {
		t.Fatal("Apply to an absent name should error")
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("Apply to an absent name created %v", names)
	}

	th := openTheta(t, reg, "metrics").Sketch()
	cm := openCountMin(t, reg, "metrics").Sketch()
	openHLL(t, reg, "other")
	for i := 0; i < 1000; i++ {
		th.Update(0, uint64(i))
		cm.Update(0, uint64(i%10))
	}

	if err := reg.Apply("", "metrics", view); err != nil {
		t.Fatal(err)
	}
	viewed := func(fam, name string) bool {
		inf, ok := reg.Info(fam, name)
		return ok && inf.Spec.View != nil
	}
	if !viewed("theta", "metrics") || !viewed("countmin", "metrics") {
		t.Fatal("Apply with family \"\" missed a sketch under the name")
	}
	if viewed("hll", "other") {
		t.Fatal("view leaked onto a different name")
	}
	// Served through the published view.
	if est := th.Estimate(); est < 500 || est > 1500 {
		t.Fatalf("viewed estimate %.0f wildly off 1000", est)
	}
	clk.Advance(time.Minute)
	if inf, _ := reg.Info("countmin", "metrics"); inf.ViewLag != time.Minute {
		t.Fatalf("ViewLag = %v, want 1m", inf.ViewLag)
	}

	// Re-declaring re-arms idempotently; switching off covers the pair, and
	// switching off again is a no-op.
	if err := reg.Apply("", "metrics", view); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := reg.Apply("", "metrics", fastsketches.Spec{ViewOff: true}); err != nil {
			t.Fatal(err)
		}
		if viewed("theta", "metrics") || viewed("countmin", "metrics") {
			t.Fatal("view on after Spec.ViewOff")
		}
	}
}

func TestRegistryViewPanicsAfterClose(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	openTheta(t, reg, "x")
	reg.Close()
	for name, spec := range map[string]fastsketches.Spec{
		"view": {View: &fastsketches.ViewConfig{}},
		"off":  {ViewOff: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Apply(%s) after Close did not panic", name)
				}
			}()
			reg.Apply("", "x", spec)
		}()
	}
}

// settleToBaseline polls until the live goroutine count returns to base.
func settleToBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestRegistryDropUnderFireNoLeak drops a sketch that carries a fast view
// refresher while writers and queriers hammer it and a resizer walks S
// through 1..4. Every resize starts a new epoch's propagators and retires
// the old ones; the resizer keeps going into Drop and Close, so a resize
// racing the sketch's Close must fail cleanly rather than panic. The
// sketch's Close must stop the view refresher and every epoch's
// propagators, and nothing may leak.
func TestRegistryDropUnderFireNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 6; round++ {
		reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
			Shards: 2, Writers: 2, BufferSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := openCountMin(t, reg, "fire")
		cm := h.Sketch()
		if err := reg.Apply("", "fire", fastsketches.Spec{
			View: &fastsketches.ViewConfig{RefreshEvery: 200 * time.Microsecond},
		}); err != nil {
			t.Fatal(err)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for lane := 0; lane < 2; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					cm.Update(lane, uint64(i%32))
				}
			}(lane)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				cm.N() // merged read through the view while it lives
			}
		}()

		// The resizer outlives the writers: it runs on into Drop and Close.
		// Before either starts, every Resize must succeed; after, an error
		// (resize after Close) is the clean outcome.
		var closing, stopResize atomic.Bool
		var resizes atomic.Int64
		resized := make(chan struct{})
		go func() {
			defer close(resized)
			for i := 0; !stopResize.Load(); i++ {
				late := closing.Load()
				if err := h.Resize(1 + i%4); err != nil && !late {
					t.Errorf("Resize(%d) before Drop/Close: %v", 1+i%4, err)
					return
				}
				resizes.Add(1)
			}
		}()

		time.Sleep(5 * time.Millisecond) // let refreshes and resizes fire
		for resizes.Load() < 4 && !t.Failed() {
			runtime.Gosched()
		}
		// Writers must be parked BEFORE Drop: an Update on a dropped
		// sketch blocks forever by contract.
		stop.Store(true)
		wg.Wait()
		closing.Store(true)
		if round%2 == 0 {
			if !reg.Drop("countmin", "fire") {
				t.Fatal("Drop found nothing")
			}
			reg.Close()
		} else {
			reg.Close() // Close with the view still attached
		}
		stopResize.Store(true)
		<-resized
	}
	settleToBaseline(t, base)
}

// TestRegistryDropRacesReplaceView races a name-wide Apply of a view against
// Drop of the same name: every interleaving must end with zero view
// refreshers alive, no panic, and the registry reusable for a fresh sketch
// under the same name.
func TestRegistryDropRacesReplaceView(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
		if err != nil {
			t.Fatal(err)
		}
		openTheta(t, reg, "raced")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// May hit the sketch before or after Drop closed it; both must
			// be clean (an error from a closed sketch is fine, a panic not).
			reg.Apply("", "raced", fastsketches.Spec{View: &fastsketches.ViewConfig{RefreshEvery: 100 * time.Microsecond}})
		}()
		go func() {
			defer wg.Done()
			reg.Drop("theta", "raced")
		}()
		wg.Wait()
		// The name is reusable; a fresh sketch starts viewless.
		if inf, ok := reg.Info("theta", "raced"); ok && inf.Spec.View != nil {
			t.Fatal("recreated sketch inherited a view")
		}
		fresh := openTheta(t, reg, "raced").Sketch()
		fresh.Update(0, 1)
		reg.Close()
	}
	settleToBaseline(t, base)
}
