// Package autoscale closes the control loop over the relaxation parameter:
// a controller samples a sharded sketch's ingest pressure and walks its
// shard count S through Resize, trading staleness for throughput under
// measured load exactly as choosing S does statically — but live.
//
// # The control loop
//
// The paper makes the throughput/staleness trade-off a parameter: a merged
// query over S shards misses at most S·r = S·2·N·b completed updates, while
// ingest throughput scales with S independent propagators. The sharded
// layer's Resize moves S while writers and queriers stay active; this
// package decides *when* to move it. Every SampleEvery the controller takes
// one wait-free PressureSample from the sketch (cumulative post-filter
// items entering the propagation plane, plus the propagator backlog),
// differentiates successive samples into a per-shard ingest rate, and
// applies a hysteresis policy:
//
//   - scale up (S ← S·StepFactor, clamped to MaxShards) when the per-shard
//     rate has exceeded HighWater — or the per-shard backlog BacklogHighWater
//     — for SustainedUp consecutive samples;
//   - scale down (S ← S/StepFactor, clamped to MinShards) when the rate has
//     stayed below LowWater with an empty backlog for SustainedDown samples;
//   - otherwise hold.
//
// An optional query-side signal joins the loop when the target serves
// merged queries from a materialized view (ViewLagger): refresh lag above
// Policy.ViewLagHighWater vetoes scale-ups and counts as down-pressure,
// since the view fold's cost — and therefore the query staleness — grows
// with S.
//
// A second optional signal, installed with SetMemoryPressure, wires a
// process-wide memory budget into the loop: while the signal reports
// over-budget, scale-ups are vetoed (growing S allocates another shard's
// state) and otherwise-quiet samples qualify as down-pressure (shrinking S
// frees shard state). The ops layer installs it from its budget accountant.
//
// # Why it cannot flap
//
// Three mechanisms damp oscillation. The water marks are separated: policy
// validation requires LowWater·StepFactor ≤ HighWater, so the rate halving
// caused by a doubling of S cannot itself fall below LowWater and bounce
// back. The streaks are sustained: a square-wave load faster than the
// SustainedUp/SustainedDown windows never completes either streak, so the
// controller sits still. And every resize starts a Cooldown during which
// further resizes are suppressed (streaks keep accumulating, so genuinely
// sustained pressure acts the instant the cooldown expires).
//
// # The transitional staleness cap
//
// While a Resize drains, merged queries pay the combined transitional bound
// S_old·r + S_new·r. MaxTransitionalRelaxation caps that window: a grow
// step is clamped to the largest S_new with (S_old+S_new)·r within the cap
// (skipped entirely if none exists), and a shrink is deepened below the
// desired step when needed, since a smaller S_new shrinks the window. Since
// every transition the controller initiates respects the cap, the bound
// reported to queriers never exceeds max(S·r, MaxTransitionalRelaxation)
// at any instant of a controlled sketch's life.
//
// All timing flows through an injectable Clock, so tests and stress
// drivers replace real time with a clock.Manual and drive Tick directly —
// no sleeps, no timer-dependent flakiness.
package autoscale

import (
	"fmt"
	"sync"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/core"
)

// Target is the resizable sharded sketch a controller drives. All four
// family wrappers of the shard package (Theta, HLL, Quantiles, CountMin)
// satisfy it through the embedded generic Sharded layer.
type Target interface {
	// Shards returns the current shard count S.
	Shards() int
	// Resize live-reshards to the given S, returning once the transition
	// has fully drained.
	Resize(shards int) error
	// Pressure returns the cumulative ingest-pressure counters, monotonic
	// across resizes.
	Pressure() core.PressureSample
	// ShardRelaxation returns the per-shard staleness bound r = 2·N·b, the
	// factor the transitional cap multiplies by S_old + S_new.
	ShardRelaxation() int
}

// ViewLagger is the optional query-side pressure signal: targets whose
// merged queries are served from a materialized view report the age of the
// latest published refresh. The shard package's family wrappers satisfy it;
// a controller consults it only when Policy.ViewLagHighWater is set.
type ViewLagger interface {
	ViewLag() time.Duration
}

// Policy parameterises a Controller. The zero value is not valid: HighWater
// must be set (it anchors the whole loop); everything else has documented
// defaults applied by New.
type Policy struct {
	// MinShards / MaxShards bound the S the controller will ever request.
	// Defaults 1 and 32.
	MinShards, MaxShards int
	// HighWater is the per-shard ingest rate (post-filter items/sec) above
	// which sustained load scales up. Required, > 0.
	HighWater float64
	// LowWater is the per-shard rate below which sustained idleness scales
	// down; a scale-down additionally requires an empty propagator backlog.
	// Must satisfy LowWater·StepFactor ≤ HighWater (hysteresis gap — see
	// the package comment). Default HighWater/(4·StepFactor).
	LowWater float64
	// BacklogHighWater is the per-shard propagator backlog (items published
	// but not yet merged) that counts as up-pressure regardless of the
	// rate — the propagators are provably behind the writers. 0 disables
	// the backlog signal.
	BacklogHighWater float64
	// SampleEvery is the controller's sampling period. Default 250ms.
	SampleEvery time.Duration
	// SustainedUp / SustainedDown are how many consecutive samples must
	// qualify before a resize fires. Defaults 3 and 6.
	SustainedUp, SustainedDown int
	// Cooldown suppresses further resizes after one completes. Default
	// 4·SampleEvery.
	Cooldown time.Duration
	// StepFactor is the multiplicative resize step. Default 2, must be ≥ 2.
	StepFactor int
	// MaxTransitionalRelaxation caps the transitional staleness window
	// (S_old+S_new)·r of any transition the controller initiates, clamping
	// or skipping steps that would exceed it. 0 = uncapped.
	MaxTransitionalRelaxation int
	// ViewLagHighWater is the query-side pressure signal: when the target
	// serves merged queries from a materialized view (it implements
	// ViewLagger) and the view's refresh lag exceeds this mark, the query
	// plane is provably not keeping up with the S-shard fold. Since the
	// refresh cost grows with S, lag above the mark vetoes scale-ups (the
	// suppression is counted in Stats.HeldViewLag) and qualifies the sample
	// as down-pressure — shrinking S makes refreshes cheaper and queries
	// fresher. A lag-driven scale-down still requires an empty propagator
	// backlog: when both planes are behind, ingest wins and the controller
	// holds. 0 disables the signal.
	ViewLagHighWater time.Duration
	// Clock supplies all controller timing. Default clock.System.
	Clock clock.Clock
}

// Normalise fills the defaults New applies and validates the policy,
// returning the effective policy a controller would run under.
func (p Policy) Normalise() (Policy, error) {
	if p.MinShards == 0 {
		p.MinShards = 1
	}
	if p.MaxShards == 0 {
		p.MaxShards = 32
	}
	if p.MinShards < 1 {
		return p, fmt.Errorf("autoscale: MinShards must be ≥ 1, got %d", p.MinShards)
	}
	if p.MaxShards < p.MinShards {
		return p, fmt.Errorf("autoscale: MaxShards %d < MinShards %d", p.MaxShards, p.MinShards)
	}
	if p.HighWater <= 0 {
		return p, fmt.Errorf("autoscale: HighWater must be > 0, got %v", p.HighWater)
	}
	if p.StepFactor == 0 {
		p.StepFactor = 2
	}
	if p.StepFactor < 2 {
		return p, fmt.Errorf("autoscale: StepFactor must be ≥ 2, got %d", p.StepFactor)
	}
	if p.LowWater == 0 {
		p.LowWater = p.HighWater / float64(4*p.StepFactor)
	}
	if p.LowWater < 0 {
		return p, fmt.Errorf("autoscale: negative LowWater")
	}
	if p.LowWater*float64(p.StepFactor) > p.HighWater {
		return p, fmt.Errorf("autoscale: LowWater %v too close to HighWater %v: need LowWater·StepFactor ≤ HighWater or a step up immediately re-qualifies for a step down",
			p.LowWater, p.HighWater)
	}
	if p.BacklogHighWater < 0 {
		return p, fmt.Errorf("autoscale: negative BacklogHighWater")
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = 250 * time.Millisecond
	}
	if p.SampleEvery < 0 {
		return p, fmt.Errorf("autoscale: negative SampleEvery")
	}
	if p.SustainedUp == 0 {
		p.SustainedUp = 3
	}
	if p.SustainedDown == 0 {
		p.SustainedDown = 6
	}
	if p.SustainedUp < 1 || p.SustainedDown < 1 {
		return p, fmt.Errorf("autoscale: Sustained windows must be ≥ 1")
	}
	if p.Cooldown == 0 {
		p.Cooldown = 4 * p.SampleEvery
	}
	if p.Cooldown < 0 {
		return p, fmt.Errorf("autoscale: negative Cooldown")
	}
	if p.MaxTransitionalRelaxation < 0 {
		return p, fmt.Errorf("autoscale: negative MaxTransitionalRelaxation")
	}
	if p.ViewLagHighWater < 0 {
		return p, fmt.Errorf("autoscale: negative ViewLagHighWater")
	}
	if p.Clock == nil {
		p.Clock = clock.System{}
	}
	return p, nil
}

// Decision is the outcome of one controller tick.
type Decision int

const (
	// DecisionWarmup: no previous sample to differentiate against (first
	// tick, or a tick with no time elapsed); a baseline was recorded.
	DecisionWarmup Decision = iota
	// DecisionHold: inside the hysteresis band, or a streak not yet
	// sustained.
	DecisionHold
	// DecisionCooldown: a sustained streak wants to resize, but the
	// post-resize cooldown has not elapsed.
	DecisionCooldown
	// DecisionAtBound: a sustained streak wants to resize, but S is already
	// at MinShards/MaxShards.
	DecisionAtBound
	// DecisionCapped: the staleness cap left no admissible step.
	DecisionCapped
	// DecisionError: the target's Resize returned an error (recorded in
	// Stats.LastErr); the streak is kept so the next tick retries.
	DecisionError
	// DecisionUp / DecisionDown: a resize completed.
	DecisionUp
	DecisionDown
)

func (d Decision) String() string {
	switch d {
	case DecisionWarmup:
		return "warmup"
	case DecisionHold:
		return "hold"
	case DecisionCooldown:
		return "cooldown"
	case DecisionAtBound:
		return "at-bound"
	case DecisionCapped:
		return "capped"
	case DecisionError:
		return "error"
	case DecisionUp:
		return "up"
	case DecisionDown:
		return "down"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Stats is a snapshot of a controller's counters.
type Stats struct {
	// Samples counts ticks taken (including warmups).
	Samples int64
	// ScaleUps / ScaleDowns count completed resizes by direction.
	ScaleUps, ScaleDowns int64
	// HeldCooldown / HeldAtBound count sustained streaks suppressed by the
	// cooldown or the MinShards/MaxShards bounds.
	HeldCooldown, HeldAtBound int64
	// CappedByStaleness counts steps the transitional cap clamped or
	// skipped.
	CappedByStaleness int64
	// HeldViewLag counts up-qualifying samples vetoed because the target's
	// materialized-view refresh lag exceeded ViewLagHighWater.
	HeldViewLag int64
	// HeldMemory counts up-qualifying samples vetoed because the installed
	// memory-pressure signal (SetMemoryPressure) reported over-budget.
	HeldMemory int64
	// LastPerShardRate / LastBacklogPerShard are the most recent pressure
	// readings (items/sec and items, per shard).
	LastPerShardRate, LastBacklogPerShard float64
	// LastViewLag is the most recent view-refresh lag reading; zero when the
	// signal is disabled or the target serves no view.
	LastViewLag time.Duration
	// Shards is the target's S at the last tick; LastDecision the tick's
	// outcome; LastErr the most recent Resize error, if any.
	Shards       int
	LastDecision Decision
	LastErr      error
}

// Controller drives one Target with one Policy. Create with New; either
// call Start/Stop for the self-paced background loop, or Tick directly to
// pace it externally (tests, stress drivers, benchmark conductors).
type Controller struct {
	t     Target
	clock clock.Clock
	p     Policy // normalised; immutable after New

	mu           sync.Mutex
	memPressure  func() bool
	lastAt       time.Time
	lastIngested int64
	haveBaseline bool
	upStreak     int
	downStreak   int
	lastResize   time.Time
	resized      bool
	st           Stats

	startMu sync.Mutex
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// New validates the policy, applies its defaults, and returns a controller
// bound to the target. The controller is inert until Start or Tick.
func New(t Target, p Policy) (*Controller, error) {
	p, err := p.Normalise()
	if err != nil {
		return nil, err
	}
	return &Controller{t: t, clock: p.Clock, p: p}, nil
}

// Policy returns the controller's effective (normalised) policy. The
// policy never changes after New, so this takes no lock and never waits out
// a resize the controller is driving.
func (c *Controller) Policy() Policy { return c.p }

// SetMemoryPressure installs (or, with nil, removes) the memory-budget
// signal: while f reports true the controller vetoes scale-ups (growing S
// allocates another shard's state; vetoes are counted in Stats.HeldMemory)
// and treats otherwise-quiet samples as down-pressure, since shrinking S
// frees shard state. f is called once per tick under the controller's lock
// and must be fast and safe for concurrent use — typically a single atomic
// load comparing resident bytes against a budget.
func (c *Controller) SetMemoryPressure(f func() bool) {
	c.mu.Lock()
	c.memPressure = f
	c.mu.Unlock()
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Tick takes one sample at the clock's current instant and applies the
// policy, returning the decision. Safe for concurrent use (ticks are
// serialised), though one pacer — the Run loop or an external driver —
// is the intended caller.
func (c *Controller) Tick() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	pr := c.t.Pressure()
	c.st.Samples++
	if !c.haveBaseline || !now.After(c.lastAt) {
		c.haveBaseline = true
		c.lastAt, c.lastIngested = now, pr.Ingested
		c.st.LastDecision = DecisionWarmup
		return DecisionWarmup
	}
	dt := now.Sub(c.lastAt).Seconds()
	delta := pr.Ingested - c.lastIngested
	if delta < 0 {
		delta = 0 // counters are monotonic; belt-and-braces for odd targets
	}
	c.lastAt, c.lastIngested = now, pr.Ingested

	shards := c.t.Shards()
	rate := float64(delta) / dt / float64(shards)
	backlog := float64(pr.Backlog()) / float64(shards)
	c.st.LastPerShardRate, c.st.LastBacklogPerShard = rate, backlog
	c.st.Shards = shards

	// Query-side pressure: a materialized view whose refresh lag exceeds the
	// water mark means the merged fold is too expensive at the current S.
	var lagHigh bool
	if c.p.ViewLagHighWater > 0 {
		if vl, ok := c.t.(ViewLagger); ok {
			lag := vl.ViewLag()
			c.st.LastViewLag = lag
			lagHigh = lag > c.p.ViewLagHighWater
		}
	}

	memHigh := c.memPressure != nil && c.memPressure()

	rawUp := rate > c.p.HighWater ||
		(c.p.BacklogHighWater > 0 && backlog >= c.p.BacklogHighWater)
	up := rawUp
	if up && lagHigh {
		// Growing S would make view refreshes costlier still; hold the
		// ingest-driven growth while the query plane is behind. The sample
		// does not become down-pressure either — with both planes loaded,
		// shrinking would hurt ingest, so the controller sits still.
		c.st.HeldViewLag++
		up = false
	}
	if up && memHigh {
		// Over the memory budget: a scale-up would allocate another shard's
		// worth of state. Hold the growth until the accountant reports room.
		c.st.HeldMemory++
		up = false
	}
	// A scale-down must see a drained propagation plane: a quiet rate with
	// a standing backlog means the propagators are behind, not the load low.
	// Sustained view lag with ingest pressure absent and a drained backlog
	// also qualifies: fewer shards make each refresh cheaper and merged
	// reads fresher. So does memory pressure: shrinking S frees shard state.
	down := !rawUp && (rate < c.p.LowWater || lagHigh || memHigh) && pr.Backlog() == 0
	switch {
	case up:
		c.upStreak, c.downStreak = c.upStreak+1, 0
	case down:
		c.downStreak, c.upStreak = c.downStreak+1, 0
	default:
		c.upStreak, c.downStreak = 0, 0
	}

	d := DecisionHold
	switch {
	case c.upStreak >= c.p.SustainedUp:
		d = c.tryResize(now, shards, true)
	case c.downStreak >= c.p.SustainedDown:
		d = c.tryResize(now, shards, false)
	}
	c.st.LastDecision = d
	return d
}

// tryResize applies the bounds, cooldown, and staleness-cap gates, then
// issues the Resize. Called with c.mu held, a sustained streak in hand.
func (c *Controller) tryResize(now time.Time, from int, grow bool) Decision {
	if (grow && from >= c.p.MaxShards) || (!grow && from <= c.p.MinShards) {
		c.st.HeldAtBound++
		return DecisionAtBound
	}
	if c.resized && now.Sub(c.lastResize) < c.p.Cooldown {
		c.st.HeldCooldown++
		return DecisionCooldown
	}
	var to int
	if grow {
		to = from * c.p.StepFactor
		if to > c.p.MaxShards {
			to = c.p.MaxShards
		}
	} else {
		to = from / c.p.StepFactor
		if to < c.p.MinShards {
			to = c.p.MinShards
		}
	}
	// The transitional window of the swap is (S_old+S_new)·r; clamp the
	// step so it never exceeds the cap. Growing: take the largest
	// admissible S_new. Shrinking: a smaller S_new only narrows the window,
	// so deepen the shrink when the desired step would exceed the cap.
	if budget := c.p.MaxTransitionalRelaxation; budget > 0 {
		if r := c.t.ShardRelaxation(); r > 0 {
			maxTo := budget/r - from
			if to > maxTo {
				c.st.CappedByStaleness++
				to = maxTo
				if (grow && to <= from) || (!grow && to < c.p.MinShards) {
					// No admissible step; drop the streak so the next
					// attempt needs freshly sustained pressure.
					c.upStreak, c.downStreak = 0, 0
					return DecisionCapped
				}
			}
		}
	}
	if err := c.t.Resize(to); err != nil {
		// Keep the streak: the next tick retries a transient failure.
		c.st.LastErr = err
		return DecisionError
	}
	// Cooldown runs from the transition's completion (Resize returns after
	// the drain), so back-to-back drains are spaced even when slow.
	c.lastResize, c.resized = c.clock.Now(), true
	c.upStreak, c.downStreak = 0, 0
	c.st.Shards = to
	if grow {
		c.st.ScaleUps++
		return DecisionUp
	}
	c.st.ScaleDowns++
	return DecisionDown
}

// Run ticks the controller every SampleEvery on its Clock until stop is
// closed. Most callers use Start/Stop instead; Run is exported for callers
// that own the goroutine.
func (c *Controller) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-c.clock.After(c.p.SampleEvery):
			c.Tick()
		}
	}
}

// Start launches the background sampling loop. It panics if the controller
// was already started (mirroring core.Framework.Start).
func (c *Controller) Start() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if c.started {
		panic("autoscale: Controller started twice")
	}
	c.started = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		c.Run(c.stop)
	}()
}

// Stop halts the background loop and waits for it to exit. Idempotent, and
// a no-op if Start was never called. The controller issues no further
// resizes after Stop returns (external Tick callers excepted).
func (c *Controller) Stop() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if !c.started || c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}
