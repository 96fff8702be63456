package fastsketches_test

// Registry autoscaling facade tests: ReplaceAutoscale attaches one started
// controller per sketch registered under the name, the controllers actually
// walk S through the registry's sketches when driven by a manual clock, and
// Close stops them. All timing is manual-clock driven — no sleeps.

import (
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
)

// testPolicy returns an aggressive manual-clock policy: one qualifying
// sample resizes, no cooldown.
func testPolicy(mc *clock.Manual) autoscale.Policy {
	return autoscale.Policy{
		MinShards: 1, MaxShards: 8,
		HighWater: 1000, LowWater: 100,
		SustainedUp: 1, SustainedDown: 1,
		SampleEvery: 10 * time.Millisecond,
		Cooldown:    time.Nanosecond,
		Clock:       mc,
	}
}

// advanceTicks drives every controller through n full sampling periods,
// synchronising on the manual clock's armed-timer count so no tick is lost
// between a controller's wakeup and its re-arm.
func advanceTicks(t *testing.T, mc *clock.Manual, ctls []*autoscale.Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	base := make([]int64, len(ctls))
	for i, ctl := range ctls {
		base[i] = ctl.Stats().Samples
	}
	for tick := 1; tick <= n; tick++ {
		for mc.Waiters() < len(ctls) {
			if time.Now().After(deadline) {
				t.Fatal("controllers never armed their sampling timers")
			}
			time.Sleep(50 * time.Microsecond)
		}
		mc.Advance(10 * time.Millisecond)
		for i, ctl := range ctls {
			for ctl.Stats().Samples < base[i]+int64(tick) {
				if time.Now().After(deadline) {
					t.Fatal("controller never ticked")
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func TestRegistryAutoscaleAttachesPerSketch(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	mustOpen(t, reg.OpenTheta, "tenant-a")
	mustOpen(t, reg.OpenHLL, "tenant-a")
	mustOpen(t, reg.OpenCountMin, "tenant-b")

	mc := clock.NewManual(time.Unix(1_000_000, 0))
	ctls, err := reg.ReplaceAutoscale("tenant-a", testPolicy(mc))
	if err != nil {
		t.Fatal(err)
	}
	if len(ctls) != 2 { // theta + hll under tenant-a; tenant-b not matched
		t.Fatalf("ReplaceAutoscale(tenant-a) attached %d controllers, want 2", len(ctls))
	}
	if _, ok := reg.AutoscaleStats("countmin", "tenant-b"); ok {
		t.Error("tenant-b gained a controller it was never given")
	}
	if _, err := reg.ReplaceAutoscale("nobody", testPolicy(mc)); err == nil {
		t.Error("ReplaceAutoscale of an unregistered name must error")
	}
	if _, err := reg.ReplaceAutoscale("tenant-a", autoscale.Policy{}); err == nil {
		t.Error("invalid policy must error")
	}
	// The rejected policy swapped nothing: tenant-a's controllers are still
	// the ones attached above, one per sketch.
	if n := reg.StopAutoscale("tenant-a"); n != 2 {
		t.Errorf("StopAutoscale(tenant-a) stopped %d controllers, want 2", n)
	}
}

// mustOpen opens name through one of the registry's Open* constructors with
// the zero Spec.
func mustOpen[H any](t *testing.T, open func(string, fastsketches.Spec) (H, error), name string) H {
	t.Helper()
	h, err := open(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRegistryAutoscaleWalksShardsUnderLoad(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 1, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sk := mustOpen(t, reg.OpenCountMin, "api.calls")

	mc := clock.NewManual(time.Unix(1_000_000, 0))
	ctls, err := reg.ReplaceAutoscale("api.calls", testPolicy(mc))
	if err != nil {
		t.Fatal(err)
	}
	advanceTicks(t, mc, ctls, 1) // warmup baseline

	// Burst: ingest between every tick; 4000 items per 10ms of manual time
	// is a per-shard rate far above HighWater → the controller must walk S
	// up to MaxShards.
	for tick := 0; tick < 8 && sk.Shards() < 8; tick++ {
		for i := 0; i < 4000; i++ {
			sk.Update(0, uint64(i))
		}
		advanceTicks(t, mc, ctls, 1)
	}
	if got := sk.Shards(); got != 8 {
		t.Fatalf("shards after sustained burst = %d, want MaxShards 8", got)
	}

	// Lull: no ingest at all. The backlog drains (propagators keep running
	// in real time), then quiet samples walk S back down to MinShards.
	deadline := time.Now().Add(30 * time.Second)
	for sk.Shards() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never scaled back down; shards %d, stats %+v", sk.Shards(), ctls[0].Stats())
		}
		advanceTicks(t, mc, ctls, 1)
	}
	st := ctls[0].Stats()
	if st.ScaleUps == 0 || st.ScaleDowns == 0 {
		t.Errorf("stats = %+v, want both ups and downs recorded", st)
	}
}

func TestRegistryCloseStopsControllers(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustOpen(t, reg.OpenTheta, "t")
	mc := clock.NewManual(time.Unix(1_000_000, 0))
	ctls, err := reg.ReplaceAutoscale("t", testPolicy(mc))
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	samples := ctls[0].Stats().Samples
	// The loop is stopped: advancing the clock can no longer produce ticks.
	mc.Advance(time.Second)
	mc.Advance(time.Second)
	if got := ctls[0].Stats().Samples; got != samples {
		t.Errorf("controller ticked after registry Close: %d → %d samples", samples, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ReplaceAutoscale after Close must panic like every registry accessor")
		}
	}()
	reg.ReplaceAutoscale("t", testPolicy(mc))
}
