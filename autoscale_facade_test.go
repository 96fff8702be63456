package fastsketches_test

// Registry autoscaling facade tests: Registry.Apply with a Spec.Autoscale
// attaches one started controller per sketch registered under the name, the
// controllers actually walk S through the registry's sketches when driven by
// a manual clock, and Close stops them. All timing is manual-clock driven —
// no sleeps.

import (
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
)

// testPolicy returns an aggressive manual-clock policy: one qualifying
// sample resizes, no cooldown.
func testPolicy(mc *clock.Manual) *autoscale.Policy {
	return &autoscale.Policy{
		MinShards: 1, MaxShards: 8,
		HighWater: 1000, LowWater: 100,
		SustainedUp: 1, SustainedDown: 1,
		SampleEvery: 10 * time.Millisecond,
		Cooldown:    time.Nanosecond,
		Clock:       mc,
	}
}

// controllerStats reads the live counters of the controller driving
// family/name.
func controllerStats(reg *fastsketches.Registry, family, name string) func() autoscale.Stats {
	return func() autoscale.Stats {
		st, _ := reg.AutoscaleStats(family, name)
		return st
	}
}

// advanceTicks drives every controller through n full sampling periods,
// synchronising on the manual clock's armed-timer count so no tick is lost
// between a controller's wakeup and its re-arm.
func advanceTicks(t *testing.T, mc *clock.Manual, ctls []func() autoscale.Stats, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	base := make([]int64, len(ctls))
	for i, stats := range ctls {
		base[i] = stats().Samples
	}
	for tick := 1; tick <= n; tick++ {
		for mc.Waiters() < len(ctls) {
			if time.Now().After(deadline) {
				t.Fatal("controllers never armed their sampling timers")
			}
			time.Sleep(50 * time.Microsecond)
		}
		mc.Advance(10 * time.Millisecond)
		for i, stats := range ctls {
			for stats().Samples < base[i]+int64(tick) {
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
	if err := reg.Apply("", "tenant-a", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil {
		t.Fatal(err)
	}
	// theta + hll under tenant-a; tenant-b not matched.
	for _, fam := range []string{"theta", "hll"} {
		if _, ok := reg.AutoscaleStats(fam, "tenant-a"); !ok {
			t.Errorf("%s/tenant-a has no controller", fam)
		}
	}
	if _, ok := reg.AutoscaleStats("countmin", "tenant-b"); ok {
		t.Error("tenant-b gained a controller it was never given")
	}
	if err := reg.Apply("", "nobody", fastsketches.Spec{Autoscale: testPolicy(mc)}); err == nil {
		t.Error("Apply to an unregistered name must error")
	}
	if err := reg.Apply("", "tenant-a", fastsketches.Spec{Autoscale: &autoscale.Policy{}}); err == nil {
		t.Error("invalid policy must error")
	}
	// The rejected policy swapped nothing: tenant-a's controllers are still
	// the ones attached above, one per sketch.
	for _, fam := range []string{"theta", "hll"} {
		if inf, _ := reg.Info(fam, "tenant-a"); inf.Spec.Autoscale == nil || inf.Spec.Autoscale.HighWater != 1000 {
			t.Errorf("%s/tenant-a policy after a rejected Apply = %+v", fam, inf.Spec.Autoscale)
		}
	}
	if err := reg.Apply("", "tenant-a", fastsketches.Spec{AutoscaleOff: true}); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"theta", "hll"} {
		if _, ok := reg.AutoscaleStats(fam, "tenant-a"); ok {
			t.Errorf("%s/tenant-a kept its controller after Spec.AutoscaleOff", fam)
		}
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
	if err := reg.Apply("countmin", "api.calls", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil {
		t.Fatal(err)
	}
	ctls := []func() autoscale.Stats{controllerStats(reg, "countmin", "api.calls")}
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
			t.Fatalf("controller never scaled back down; shards %d, stats %+v", sk.Shards(), ctls[0]())
		}
		advanceTicks(t, mc, ctls, 1)
	}
	st := ctls[0]()
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
	if err := reg.Apply("", "t", fastsketches.Spec{Autoscale: testPolicy(mc)}); err != nil {
		t.Fatal(err)
	}
	stats := controllerStats(reg, "theta", "t")
	reg.Close()
	samples := stats().Samples
	// The loop is stopped: advancing the clock can no longer produce ticks.
	mc.Advance(time.Second)
	mc.Advance(time.Second)
	if got := stats().Samples; got != samples {
		t.Errorf("controller ticked after registry Close: %d → %d samples", samples, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Apply after Close must panic like every registry accessor")
		}
	}()
	reg.Apply("", "t", fastsketches.Spec{Autoscale: testPolicy(mc)})
}
