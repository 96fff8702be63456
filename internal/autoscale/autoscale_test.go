package autoscale_test

// Policy edge-case suite: every scenario drives the controller through a
// fake target and a ManualClock — load is a per-tick script of (rate,
// backlog) readings, ticks are explicit, and no test sleeps. Covered:
// warmup, steady-load no-op, sustained-streak timing, cooldown
// suppression, min/max clamping, backlog up-pressure, down-requires-empty-
// backlog, transitional staleness-cap clamping (partial and full), resize
// errors, and oscillation damping under load square-waves.

import (
	"errors"
	"testing"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
)

// fakeTarget scripts a resizable sketch: tests set the pressure counters
// between ticks and record every Resize.
type fakeTarget struct {
	shards    int
	r         int // per-shard relaxation
	pressure  core.PressureSample
	resizes   []int
	resizeErr error
}

func (t *fakeTarget) Shards() int                   { return t.shards }
func (t *fakeTarget) ShardRelaxation() int          { return t.r }
func (t *fakeTarget) Pressure() core.PressureSample { return t.pressure }
func (t *fakeTarget) Resize(s int) error {
	if t.resizeErr != nil {
		return t.resizeErr
	}
	t.resizes = append(t.resizes, s)
	t.shards = s
	return nil
}

const tickEvery = 100 * time.Millisecond

// harness binds a controller, its fake target and manual clock, and offers
// tick(rate, backlog): feed one sample worth of load (items/sec per shard ×
// current shards, over one SampleEvery) and take one tick.
type harness struct {
	tg  *fakeTarget
	mc  *clock.Manual
	ctl *autoscale.Controller
}

func newHarness(t *testing.T, tg *fakeTarget, p autoscale.Policy) *harness {
	t.Helper()
	mc := clock.NewManual(time.Unix(1_000_000, 0))
	p.Clock = mc
	if p.SampleEvery == 0 {
		p.SampleEvery = tickEvery
	}
	ctl, err := autoscale.New(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := ctl.Tick(); d != autoscale.DecisionWarmup {
		t.Fatalf("first tick = %v, want warmup", d)
	}
	return &harness{tg: tg, mc: mc, ctl: ctl}
}

// tick advances one SampleEvery during which the whole sketch ingested
// rate items/sec *per current shard*, leaving `backlog` items unpropagated,
// then runs one controller tick.
func (h *harness) tick(rate float64, backlog int64) autoscale.Decision {
	h.mc.Advance(tickEvery)
	delta := int64(rate * tickEvery.Seconds() * float64(h.tg.shards))
	h.tg.pressure.Ingested += delta
	h.tg.pressure.Merged = h.tg.pressure.Ingested - backlog
	return h.ctl.Tick()
}

// policy returns a baseline test policy: high water 1000/s, low water 100/s,
// sustain 3 up / 2 down, cooldown 5 ticks.
func policy() autoscale.Policy {
	return autoscale.Policy{
		MinShards: 1, MaxShards: 16,
		HighWater: 1000, LowWater: 100,
		SustainedUp: 3, SustainedDown: 2,
		Cooldown: 5 * tickEvery,
	}
}

func TestPolicyValidation(t *testing.T) {
	tg := &fakeTarget{shards: 4, r: 8}
	for name, p := range map[string]autoscale.Policy{
		"missing high water":  {},
		"min above max":       {HighWater: 100, MinShards: 8, MaxShards: 4},
		"low above high":      {HighWater: 100, LowWater: 200},
		"no hysteresis gap":   {HighWater: 100, LowWater: 60}, // 60·2 > 100
		"step factor one":     {HighWater: 100, StepFactor: 1},
		"negative cooldown":   {HighWater: 100, Cooldown: -time.Second},
		"negative backlog hw": {HighWater: 100, BacklogHighWater: -1},
	} {
		if _, err := autoscale.New(tg, p); err == nil {
			t.Errorf("%s: New accepted invalid policy %+v", name, p)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	ctl, err := autoscale.New(&fakeTarget{shards: 4, r: 8}, autoscale.Policy{HighWater: 800})
	if err != nil {
		t.Fatal(err)
	}
	p := ctl.Policy()
	if p.MinShards != 1 || p.MaxShards != 32 || p.StepFactor != 2 {
		t.Errorf("bounds/step defaults = %d/%d/%d, want 1/32/2", p.MinShards, p.MaxShards, p.StepFactor)
	}
	if p.LowWater != 100 { // HighWater/(4·StepFactor)
		t.Errorf("LowWater default = %v, want 100", p.LowWater)
	}
	if p.SustainedUp != 3 || p.SustainedDown != 6 {
		t.Errorf("sustained defaults = %d/%d, want 3/6", p.SustainedUp, p.SustainedDown)
	}
	if p.SampleEvery != 250*time.Millisecond || p.Cooldown != time.Second {
		t.Errorf("timing defaults = %v/%v, want 250ms/1s", p.SampleEvery, p.Cooldown)
	}
	if p.Clock == nil {
		t.Error("Clock default not applied")
	}
}

func TestSteadyLoadIsNoOp(t *testing.T) {
	// Load comfortably inside the hysteresis band: the controller must sit
	// still forever, whatever the band position.
	for _, rate := range []float64{150, 500, 999} {
		tg := &fakeTarget{shards: 4, r: 8}
		h := newHarness(t, tg, policy())
		for i := 0; i < 50; i++ {
			if d := h.tick(rate, 0); d != autoscale.DecisionHold {
				t.Fatalf("rate %v tick %d: decision %v, want hold", rate, i, d)
			}
		}
		if len(tg.resizes) != 0 {
			t.Errorf("rate %v: steady load caused resizes %v", rate, tg.resizes)
		}
	}
}

func TestSustainedHighScalesUpExactlyOnSchedule(t *testing.T) {
	tg := &fakeTarget{shards: 4, r: 8}
	h := newHarness(t, tg, policy())
	for i := 0; i < 2; i++ { // two qualifying samples: not sustained yet
		if d := h.tick(5000, 0); d != autoscale.DecisionHold {
			t.Fatalf("tick %d: decision %v, want hold", i, d)
		}
	}
	if d := h.tick(5000, 0); d != autoscale.DecisionUp {
		t.Fatalf("third sustained tick: decision %v, want up", d)
	}
	if tg.shards != 8 {
		t.Fatalf("shards after up = %d, want 8", tg.shards)
	}
}

func TestInterruptedStreakResets(t *testing.T) {
	tg := &fakeTarget{shards: 4, r: 8}
	h := newHarness(t, tg, policy())
	h.tick(5000, 0)
	h.tick(5000, 0)
	h.tick(500, 0) // back in band: streak dies at 2 of 3
	h.tick(5000, 0)
	h.tick(5000, 0)
	if len(tg.resizes) != 0 {
		t.Fatalf("interrupted streak still resized: %v", tg.resizes)
	}
	if d := h.tick(5000, 0); d != autoscale.DecisionUp {
		t.Fatalf("freshly sustained streak: decision %v, want up", d)
	}
}

func TestCooldownSuppression(t *testing.T) {
	tg := &fakeTarget{shards: 2, r: 8}
	h := newHarness(t, tg, policy())
	for i := 0; i < 3; i++ {
		h.tick(5000, 0)
	}
	if tg.shards != 4 {
		t.Fatalf("first up did not fire: shards %d", tg.shards)
	}
	// Pressure stays high. Cooldown is 5 ticks; the next up may fire on the
	// first sustained streak whose final tick clears the cooldown.
	for i := 0; i < 4; i++ { // ticks 1..4 after the resize: all inside cooldown
		if d := h.tick(5000, 0); d == autoscale.DecisionUp {
			t.Fatalf("tick %d after resize: scaled up inside cooldown", i+1)
		}
	}
	if tg.shards != 4 {
		t.Fatalf("shards moved during cooldown: %d", tg.shards)
	}
	if d := h.tick(5000, 0); d != autoscale.DecisionUp { // tick 5: cooldown over, streak long sustained
		t.Fatalf("first post-cooldown tick: decision %v, want up", d)
	}
	if s := h.ctl.Stats(); s.HeldCooldown == 0 {
		t.Error("HeldCooldown not counted")
	}
}

func TestMinMaxClamping(t *testing.T) {
	p := policy()
	p.MinShards, p.MaxShards = 2, 8
	p.Cooldown = tickEvery // effectively off
	tg := &fakeTarget{shards: 4, r: 8}
	h := newHarness(t, tg, p)
	for i := 0; i < 20; i++ {
		h.tick(5000, 0)
	}
	if tg.shards != 8 {
		t.Fatalf("shards under sustained fire = %d, want pinned at max 8", tg.shards)
	}
	atMax := h.ctl.Stats().HeldAtBound
	if atMax == 0 {
		t.Error("HeldAtBound not counted at MaxShards")
	}
	for i := 0; i < 20; i++ {
		h.tick(0, 0)
	}
	if tg.shards != 2 {
		t.Fatalf("shards after sustained idleness = %d, want pinned at min 2", tg.shards)
	}
	if h.ctl.Stats().HeldAtBound == atMax {
		t.Error("HeldAtBound not counted at MinShards")
	}
}

func TestBacklogForcesUpPressure(t *testing.T) {
	p := policy()
	p.BacklogHighWater = 64
	tg := &fakeTarget{shards: 4, r: 8}
	h := newHarness(t, tg, p)
	// Rate far below HighWater, but the propagators are 100 items/shard
	// behind: that is up-pressure.
	for i := 0; i < 2; i++ {
		if d := h.tick(200, 400); d != autoscale.DecisionHold {
			t.Fatalf("tick %d: decision %v, want hold", i, d)
		}
	}
	if d := h.tick(200, 400); d != autoscale.DecisionUp {
		t.Fatalf("sustained backlog: decision %v, want up", d)
	}
}

func TestDownRequiresEmptyBacklog(t *testing.T) {
	tg := &fakeTarget{shards: 8, r: 8}
	h := newHarness(t, tg, policy())
	// Rate below LowWater but with a standing backlog: never scale down.
	for i := 0; i < 10; i++ {
		if d := h.tick(10, 32); d != autoscale.DecisionHold {
			t.Fatalf("tick %d: decision %v, want hold (backlog pending)", i, d)
		}
	}
	// Backlog drained: two quiet samples suffice.
	h.tick(10, 0)
	if d := h.tick(10, 0); d != autoscale.DecisionDown {
		t.Fatalf("drained quiet tick: decision %v, want down", d)
	}
	if tg.shards != 4 {
		t.Fatalf("shards after down = %d, want 4", tg.shards)
	}
}

func TestStalenessCapClampsGrowth(t *testing.T) {
	// r = 10, from = 4, desired to = 8 → window (4+8)·10 = 120.
	cases := []struct {
		cap        int
		wantShards int
		wantUp     bool
	}{
		{0, 8, true},   // uncapped: full step
		{120, 8, true}, // cap exactly admits the full step
		{110, 7, true}, // clamped to the largest admissible step
		{90, 4, false}, // (4+5)·10 = 90 admits 5... boundary: maxTo = 9-4 = 5
		{80, 4, false}, // no admissible step at all
	}
	for _, tc := range cases {
		p := policy()
		p.MaxTransitionalRelaxation = tc.cap
		tg := &fakeTarget{shards: 4, r: 10}
		h := newHarness(t, tg, p)
		var last autoscale.Decision
		for i := 0; i < 3; i++ {
			last = h.tick(5000, 0)
		}
		if tc.cap == 90 {
			// maxTo = 90/10 − 4 = 5 > from: a partial step to 5 is legal.
			if last != autoscale.DecisionUp || tg.shards != 5 {
				t.Errorf("cap 90: decision %v shards %d, want partial up to 5", last, tg.shards)
			}
			continue
		}
		if tc.wantUp && (last != autoscale.DecisionUp || tg.shards != tc.wantShards) {
			t.Errorf("cap %d: decision %v shards %d, want up to %d", tc.cap, last, tg.shards, tc.wantShards)
		}
		if !tc.wantUp && (last != autoscale.DecisionCapped || tg.shards != tc.wantShards) {
			t.Errorf("cap %d: decision %v shards %d, want capped at %d", tc.cap, last, tg.shards, tc.wantShards)
		}
	}
}

func TestStalenessCapDeepensShrink(t *testing.T) {
	// from = 8, desired to = 4, r = 10: window (8+4)·10 = 120. A cap of 100
	// admits only to ≤ 100/10 − 8 = 2 — the shrink deepens to 2, narrowing
	// the window below the cap.
	p := policy()
	p.MaxTransitionalRelaxation = 100
	tg := &fakeTarget{shards: 8, r: 10}
	h := newHarness(t, tg, p)
	h.tick(0, 0)
	if d := h.tick(0, 0); d != autoscale.DecisionDown {
		t.Fatalf("decision %v, want down", d)
	}
	if tg.shards != 2 {
		t.Fatalf("shards = %d, want shrink deepened to 2", tg.shards)
	}
	if h.ctl.Stats().CappedByStaleness == 0 {
		t.Error("CappedByStaleness not counted")
	}
}

func TestResizeErrorKeepsStreak(t *testing.T) {
	tg := &fakeTarget{shards: 4, r: 8, resizeErr: errors.New("transient")}
	h := newHarness(t, tg, policy())
	h.tick(5000, 0)
	h.tick(5000, 0)
	if d := h.tick(5000, 0); d != autoscale.DecisionError {
		t.Fatalf("failing resize: decision %v, want error", d)
	}
	if s := h.ctl.Stats(); s.LastErr == nil {
		t.Error("LastErr not recorded")
	}
	tg.resizeErr = nil
	if d := h.tick(5000, 0); d != autoscale.DecisionUp {
		t.Fatalf("tick after error cleared: decision %v, want immediate up (streak kept)", d)
	}
}

func TestOscillationDampingFastSquareWave(t *testing.T) {
	// Load alternates far-above-high / far-below-low every tick: neither
	// streak can ever complete, so the controller must never resize.
	tg := &fakeTarget{shards: 4, r: 8}
	h := newHarness(t, tg, policy())
	for i := 0; i < 100; i++ {
		rate := 5000.0
		if i%2 == 1 {
			rate = 0
		}
		if d := h.tick(rate, 0); d != autoscale.DecisionHold {
			t.Fatalf("tick %d: decision %v, want hold", i, d)
		}
	}
	if len(tg.resizes) != 0 {
		t.Fatalf("fast square wave caused resizes: %v", tg.resizes)
	}
}

func TestSlowSquareWaveResizesAreBounded(t *testing.T) {
	// A slow square wave (20 ticks per half-period) does legitimately move
	// S — but the cooldown and sustained windows bound the resize rate to
	// at most one per (Sustained + Cooldown) ticks, so a 200-tick run is
	// provably capped. Flapping (a resize per tick) would blow through this.
	p := policy() // up: 3 sustained, down: 2, cooldown: 5 ticks
	tg := &fakeTarget{shards: 2, r: 8}
	h := newHarness(t, tg, p)
	const ticks = 200
	for i := 0; i < ticks; i++ {
		rate := 5000.0
		if (i/20)%2 == 1 {
			rate = 0
		}
		h.tick(rate, 0)
	}
	// Consecutive resizes are spaced by the 5-tick cooldown (streaks may
	// accumulate during it, but the resize itself cannot fire), so a
	// 200-tick run admits at most ticks/5 + 1 resizes.
	if max := ticks/5 + 1; len(tg.resizes) > max {
		t.Fatalf("slow square wave caused %d resizes (%v), cooldown bound allows ≤ %d",
			len(tg.resizes), tg.resizes, max)
	}
	if len(tg.resizes) == 0 {
		t.Fatal("slow square wave never resized: controller is inert")
	}
	up, down := 0, 0
	last := 2
	for _, s := range tg.resizes {
		if s > last {
			up++
		} else {
			down++
		}
		last = s
	}
	if up == 0 || down == 0 {
		t.Errorf("expected movement in both directions, got %d up / %d down (%v)", up, down, tg.resizes)
	}
}

func TestRunStopWithManualClock(t *testing.T) {
	// The background loop paced by a ManualClock: every Advance(SampleEvery)
	// yields exactly one tick, and Stop is clean and idempotent.
	tg := &fakeTarget{shards: 4, r: 8}
	mc := clock.NewManual(time.Unix(1_000_000, 0))
	p := policy()
	p.Clock = mc
	p.SampleEvery = tickEvery
	ctl, err := autoscale.New(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	for i := 0; i < 3; i++ {
		waitFor(t, func() bool { return mc.Waiters() == 1 })
		mc.Advance(tickEvery)
		want := int64(i + 1)
		waitFor(t, func() bool { return ctl.Stats().Samples == want })
	}
	ctl.Stop()
	ctl.Stop() // idempotent
	if got := ctl.Stats().Samples; got != 3 {
		t.Fatalf("samples after stop = %d, want 3", got)
	}
}

// waitFor polls cond (yielding) with a generous bound; the condition is
// driven by the ManualClock, not real time, so this never sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// lagTarget is a fakeTarget that also reports a scripted materialized-view
// refresh lag — the query-side pressure signal.
type lagTarget struct {
	*fakeTarget
	lag time.Duration
}

func (t *lagTarget) ViewLag() time.Duration { return t.lag }

func TestViewLagVetoesScaleUp(t *testing.T) {
	tg := &lagTarget{fakeTarget: &fakeTarget{shards: 4, r: 8}}
	p := policy()
	p.ViewLagHighWater = 500 * time.Millisecond
	h := newHarness(t, tg.fakeTarget, p)
	// Rebind the controller to the lag-aware target, on the harness clock.
	p.Clock = h.mc
	ctl, err := autoscale.New(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	h.ctl.Tick() // warmup baseline

	tg.lag = time.Second // above the water mark
	for i := 0; i < 6; i++ {
		if d := h.tick(5000, 0); d == autoscale.DecisionUp {
			t.Fatalf("tick %d scaled up despite view lag above the water mark", i)
		}
	}
	if len(tg.resizes) != 0 {
		t.Fatalf("resizes issued under high view lag: %v", tg.resizes)
	}
	st := h.ctl.Stats()
	if st.HeldViewLag == 0 {
		t.Error("HeldViewLag not counted for vetoed up-pressure")
	}
	if st.LastViewLag != time.Second {
		t.Errorf("LastViewLag = %v, want 1s", st.LastViewLag)
	}
	// Lag clears: the same load now completes an up streak and resizes.
	tg.lag = 0
	for i := 0; i < p.SustainedUp; i++ {
		h.tick(5000, 0)
	}
	if tg.shards != 8 {
		t.Fatalf("shards after lag cleared = %d, want 8", tg.shards)
	}
}

func TestViewLagQualifiesScaleDown(t *testing.T) {
	tg := &lagTarget{fakeTarget: &fakeTarget{shards: 8, r: 8}}
	p := policy()
	p.ViewLagHighWater = 500 * time.Millisecond
	h := newHarness(t, tg.fakeTarget, p)
	p.Clock = h.mc
	ctl, err := autoscale.New(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	h.ctl.Tick() // warmup

	// Mid-band rate (between the water marks) would normally hold; a lagging
	// view with a drained backlog qualifies the sample as down-pressure.
	tg.lag = time.Second
	for i := 0; i < p.SustainedDown; i++ {
		h.tick(500, 0)
	}
	if tg.shards != 4 {
		t.Fatalf("shards = %d, want 4 (lag-driven scale-down)", tg.shards)
	}
}

func TestViewLagDownStillRequiresEmptyBacklog(t *testing.T) {
	tg := &lagTarget{fakeTarget: &fakeTarget{shards: 8, r: 8}}
	p := policy()
	p.ViewLagHighWater = 500 * time.Millisecond
	h := newHarness(t, tg.fakeTarget, p)
	p.Clock = h.mc
	ctl, err := autoscale.New(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	h.ctl.Tick() // warmup

	// Both planes behind: lag high AND a standing backlog — ingest wins, the
	// controller holds rather than shrinking an overloaded sketch.
	tg.lag = time.Second
	for i := 0; i < 4*p.SustainedDown; i++ {
		if d := h.tick(500, 64); d == autoscale.DecisionDown {
			t.Fatal("scaled down with a standing propagator backlog")
		}
	}
	if len(tg.resizes) != 0 {
		t.Fatalf("resizes issued: %v", tg.resizes)
	}
}

func TestViewLagSignalIgnoredForPlainTargets(t *testing.T) {
	// ViewLagHighWater set, but the target implements no ViewLag: the signal
	// is absent and ingest pressure alone drives the loop.
	tg := &fakeTarget{shards: 4, r: 8}
	p := policy()
	p.ViewLagHighWater = time.Millisecond
	h := newHarness(t, tg, p)
	for i := 0; i < p.SustainedUp; i++ {
		h.tick(5000, 0)
	}
	if tg.shards != 8 {
		t.Fatalf("shards = %d, want 8 (plain target must scale on rate)", tg.shards)
	}
	if st := h.ctl.Stats(); st.LastViewLag != 0 || st.HeldViewLag != 0 {
		t.Errorf("view-lag stats moved for a plain target: %+v", st)
	}
}

func TestNegativeViewLagHighWaterRejected(t *testing.T) {
	if _, err := autoscale.New(&fakeTarget{shards: 4, r: 8},
		autoscale.Policy{HighWater: 100, ViewLagHighWater: -time.Second}); err == nil {
		t.Fatal("New accepted a negative ViewLagHighWater")
	}
}
