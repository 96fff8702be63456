package adversary

// Live stress-driver for the sharded registry: where the rest of this
// package simulates the Section 6 adversaries analytically, this file plays
// the adversary against the real implementation. Concurrent writers hammer a
// sharded sketch while queriers race merged reads against a ground-truth
// update counter, checking every single answer against the combined
// relaxation bound S·r = S·2·N·b (Theorem 1 applied per shard, summed over
// the fold) — and against exactness while every shard is still in its eager
// phase.
//
// The queriers alternate between the two merged-query planes: the pooled
// path (family query methods drawing a reused accumulator from the sketch's
// internal sync.Pool) and the caller-owned path (one accumulator per
// querier goroutine, reset and refolded by QueryInto on every odd query).
// Both race live against concurrent propagation, so the run also asserts
// that accumulator reuse never leaks state across queries — a stale fold
// would surface as a bound violation in either direction.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/shard"
)

// raiseMax lifts m to at least v (CAS loop: concurrent queriers race here).
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StressConfig parameterises a stress run.
type StressConfig struct {
	// Shards is S; Writers is N (goroutines = writer lanes); BufferSize is b.
	Shards, Writers, BufferSize int
	// UpdatesPerWriter is the stream length each writer ingests.
	UpdatesPerWriter int
	// Queriers is the number of concurrent query goroutines. Default 2.
	Queriers int
	// MaxError is the per-shard eager budget; 1.0 disables the eager phase
	// so the whole run exercises the lazy path. Values < 1 additionally run
	// a single-threaded eager prologue asserting exactness.
	MaxError float64
}

func (c *StressConfig) normalise() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Writers == 0 {
		c.Writers = 4
	}
	if c.BufferSize == 0 {
		c.BufferSize = 4
	}
	if c.UpdatesPerWriter == 0 {
		c.UpdatesPerWriter = 20000
	}
	if c.Queriers == 0 {
		c.Queriers = 2
	}
	if c.MaxError == 0 {
		c.MaxError = 1.0
	}
}

// StressReport is the outcome of a stress run. A correct implementation
// yields zero violations of either kind; WorstDeficit records how close the
// adversary got to the S·r wall (positive values approach it, values above
// zero violations mean it was breached).
type StressReport struct {
	// Bound is the combined relaxation S·r the queries were checked against.
	Bound int
	// Queries is the number of merged queries issued during the lazy phase.
	Queries int64
	// LowerViolations counts queries whose answer missed more than S·r
	// completed updates; UpperViolations counts answers exceeding the
	// updates started by query end (invented data).
	LowerViolations, UpperViolations int64
	// WorstDeficit is the maximum observed (completed − S·r − answer) over
	// all queries; ≤ 0 means the bound held with margin, > 0 is a violation.
	WorstDeficit int64
	// EagerQueries counts queries issued during the eager prologue;
	// EagerViolations counts those whose answer was not exact.
	EagerQueries, EagerViolations int64
	// Resizes counts live Resize transitions completed during the run
	// (resize-under-fire scenarios only).
	Resizes int64
	// PostResizeQueries counts queries issued strictly after the final
	// resize completed; those were checked against the tighter steady-state
	// bound S_final·r instead of the transitional bound.
	PostResizeQueries int64
	// ScaleUps / ScaleDowns split Resizes by direction, and FinalShards is
	// S once the run quiesced (autoscale-under-fire scenarios only).
	ScaleUps, ScaleDowns int64
	FinalShards          int
	// CapViolations counts controller-initiated transitions whose
	// (S_old+S_new)·r exceeded the policy's MaxTransitionalRelaxation — the
	// staleness cap the controller must never breach.
	CapViolations int64
	// Refreshes counts materialized-view refresh publications completed
	// during the run (view-under-fire scenarios only).
	Refreshes int64
	// Rotations counts window rotations completed during the run, and
	// Expulsions how many of them expelled a full ring's oldest slot
	// (window-under-fire scenarios only). Expulsions > 0 certifies the run
	// actually exercised the eviction path, not just a filling ring.
	Rotations, Expulsions int64
}

// ResizeStressConfig parameterises a resize-under-fire stress run: the
// base workload of StressConfig plus a schedule of live Resize calls issued
// while writers and queriers stay active.
type ResizeStressConfig struct {
	StressConfig
	// Schedule is the successive shard counts Resize moves through,
	// triggered at evenly-spaced points of the ingested stream. Default
	// {2·Shards, 1, 2·Shards} — grow, collapse, grow again.
	Schedule []int
}

func (c *ResizeStressConfig) normalise() {
	c.StressConfig.normalise()
	if len(c.Schedule) == 0 {
		c.Schedule = []int{2 * c.Shards, 1, 2 * c.Shards}
	}
}

// bounds returns the transitional and steady-state staleness bounds the
// envelope is checked against. While resizes may still be in flight every
// query is checked against the worst transitional bound of the schedule,
// (S_old + S_new)·r for the widest consecutive pair (the documented bound
// while a drain is in progress — both epochs' live snapshots are folded).
// Once the final Resize has returned, queries are held to the tighter
// steady-state bound S_final·r: retired state is folded exactly and must
// contribute no staleness at all.
func (c *ResizeStressConfig) bounds() (transitional, final int64) {
	perShard := int64(2 * c.Writers * c.BufferSize) // r = 2·N·b (OptParSketch)
	prev := int64(c.Shards)
	for _, s := range c.Schedule {
		if sum := (prev + int64(s)) * perShard; sum > transitional {
			transitional = sum
		}
		prev = int64(s)
	}
	if steady := prev * perShard; steady > transitional {
		transitional = steady
	}
	return transitional, prev * perShard
}

// resizer walks the schedule, issuing each Resize once the ground-truth
// completed counter crosses the next evenly-spaced threshold (or the
// writers finish), and flags doneResizing after the last transition has
// fully drained.
func resizer(cfg ResizeStressConfig, resize func(int) error,
	completed *atomic.Int64, writersDone <-chan struct{},
	doneResizing *atomic.Bool, resizes *int64) error {
	total := int64(cfg.Writers * cfg.UpdatesPerWriter)
	for i, s := range cfg.Schedule {
		threshold := total * int64(i+1) / int64(len(cfg.Schedule)+1)
	wait:
		for completed.Load() < threshold {
			select {
			case <-writersDone:
				break wait
			default:
				runtime.Gosched()
			}
		}
		if err := resize(s); err != nil {
			return err
		}
		*resizes++
	}
	doneResizing.Store(true)
	return nil
}

// resizeQuerier runs one query goroutine of a resize-under-fire scenario:
// query() returns the merged answer (alternating pooled and caller-owned
// paths is the caller's business). Every answer is checked against
// c1 − bound ≤ answer ≤ c2, where bound is the transitional bound while
// resizes may be in flight and the steady-state bound after the final
// resize has drained. An upper violation (answer > started) would expose a
// drain that double-counts retired updates; a lower violation a drain that
// loses them.
func resizeQuerier(rep *StressReport, stop <-chan struct{},
	completed, started *atomic.Int64, doneResizing *atomic.Bool,
	transitional, final int64, worst *atomic.Int64, query func() int64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		bound := transitional
		post := doneResizing.Load()
		if post {
			bound = final
		}
		c1 := completed.Load()
		got := query()
		c2 := started.Load()
		atomic.AddInt64(&rep.Queries, 1)
		if post {
			atomic.AddInt64(&rep.PostResizeQueries, 1)
		}
		raiseMax(worst, c1-bound-got)
		if got < c1-bound {
			atomic.AddInt64(&rep.LowerViolations, 1)
		}
		if got > c2 {
			atomic.AddInt64(&rep.UpperViolations, 1)
		}
		runtime.Gosched()
	}
}

// resizeStressDriver bundles the family-specific pieces of a resize-under-
// fire run; runResizeStress supplies the shared orchestration.
type resizeStressDriver struct {
	// resize is the sketch's live Resize entry point.
	resize func(int) error
	// update ingests the i-th update of writer lane w (ground-truth
	// counting around it is the runner's business).
	update func(w, i int)
	// newQuery returns one querier's merged-query closure; alternating
	// between the pooled and caller-owned query planes is the driver's
	// business.
	newQuery func() func() int64
}

// runResizeStress is the shared engine of the resize-under-fire scenarios:
// cfg.Writers writer goroutines drive the driver's update, cfg.Queriers
// queriers race its merged query through resizeQuerier's phased envelope,
// and a resizer walks the shard-count schedule in between.
func runResizeStress(cfg ResizeStressConfig, d resizeStressDriver) (StressReport, error) {
	transitional, final := cfg.bounds()
	rep := StressReport{Bound: int(transitional)}

	var completed, started atomic.Int64
	var doneResizing atomic.Bool
	var worst atomic.Int64
	stop := make(chan struct{})
	writersDone := make(chan struct{})
	var wg, qwg sync.WaitGroup

	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			resizeQuerier(&rep, stop, &completed, &started, &doneResizing,
				transitional, final, &worst, d.newQuery())
		}()
	}
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				d.update(w, i)
				completed.Add(1)
			}
		}(w)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- resizer(cfg, d.resize, &completed, writersDone, &doneResizing, &rep.Resizes)
	}()
	wg.Wait()
	close(writersDone)
	err := <-errc
	close(stop)
	qwg.Wait()
	rep.WorstDeficit = worst.Load()
	return rep, err
}

// StressResizeCountTotals is StressCountTotals with live resharding layered
// on top: while writers hammer a sharded Count-Min and queriers race its
// cross-shard total N(), a resizer goroutine walks the configured shard-
// count schedule. Every merged answer must stay inside the envelope
// c1 − bound ≤ N() ≤ c2 with bound the documented transitional staleness
// bound S_old·r + S_new·r while a drain may be in flight, and the plain
// S_final·r once the last Resize has returned — so the run asserts both
// that a transition never loses or double-counts retired updates and that
// the bound tightens back after the drain.
func StressResizeCountTotals(cfg ResizeStressConfig) (StressReport, error) {
	cfg.normalise()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   1.0, // lazy path throughout; eager resizes are covered by unit tests
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()
	const hotKeys = 64
	return runResizeStress(cfg, resizeStressDriver{
		resize: sk.Resize,
		update: func(w, i int) { sk.Update(w, uint64((w*cfg.UpdatesPerWriter+i)%hotKeys)) },
		newQuery: func() func() int64 {
			acc := sk.NewAccumulator()
			i := 0
			return func() int64 {
				i++
				if i%2 == 0 {
					return int64(sk.N())
				}
				sk.QueryInto(acc)
				return int64(acc.N())
			}
		},
	})
}

// StressResizeThetaDistinct layers live resharding over StressThetaDistinct:
// all-distinct keys kept inside every gadget's exact mode, so the merged
// Union estimate counts propagated distinct keys exactly — across epoch
// swaps, drains and the legacy fold, which additionally exercises the
// idempotence of the Θ drain (retired hashes reappear only once however
// many times they are refolded). The envelope and bound phasing are as in
// StressResizeCountTotals.
func StressResizeThetaDistinct(cfg ResizeStressConfig) (StressReport, error) {
	cfg.normalise()
	const lgK = 13
	if budget := 1 << lgK; cfg.Writers*cfg.UpdatesPerWriter > budget {
		cfg.UpdatesPerWriter = budget / cfg.Writers
	}
	sk, err := shard.NewTheta(lgK, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   1.0,
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()
	return runResizeStress(cfg, resizeStressDriver{
		resize: sk.Resize,
		update: func(w, i int) { sk.Update(w, uint64(w+2)<<40+uint64(i)) },
		newQuery: func() func() int64 {
			acc := sk.NewAccumulator()
			i := 0
			return func() int64 {
				i++
				if i%2 == 0 {
					return int64(sk.Estimate())
				}
				sk.QueryInto(acc)
				return int64(acc.Estimate())
			}
		},
	})
}

// AutoscaleStressConfig parameterises an autoscale-under-fire stress run:
// the base workload of StressConfig, driven not by a fixed resize schedule
// but by a live autoscale.Controller whose decisions emerge from the
// measured pressure of the run itself.
type AutoscaleStressConfig struct {
	StressConfig
	// MinShards / MaxShards bound the controller's policy. Defaults 1 and
	// 4·Shards.
	MinShards, MaxShards int
}

func (c *AutoscaleStressConfig) normalise() {
	c.StressConfig.normalise()
	if c.MinShards == 0 {
		c.MinShards = 1
	}
	if c.MaxShards == 0 {
		c.MaxShards = 4 * c.Shards
	}
}

// capCheckTarget wraps the sketch the controller drives, recording any
// transition whose combined window (S_old+S_new)·r would exceed the
// policy's staleness cap — which a correct controller never requests.
type capCheckTarget struct {
	*shard.CountMin
	budget     int
	violations *atomic.Int64
}

func (t capCheckTarget) Resize(s int) error {
	if from := t.Shards(); t.budget > 0 && (from+s)*t.ShardRelaxation() > t.budget {
		t.violations.Add(1)
	}
	return t.CountMin.Resize(s)
}

// StressAutoscaleUnderFire is the closed-loop counterpart of
// StressResizeCountTotals: writers hammer a sharded Count-Min while a live
// autoscale.Controller — sampling the sketch's real pressure counters,
// paced deterministically through a ManualClock by a conductor goroutine —
// walks S up under the write burst and back down to MinShards once the
// writers quiesce. Queriers race merged reads throughout and check every
// answer against the per-epoch staleness envelope:
//
//	c1 − bound ≤ answer ≤ c2
//
// with bound = 2·MaxShards·r (every controller transition keeps both
// epochs within MaxShards, and the policy cap is set to exactly that
// window) while the controller may still be resizing, tightening to the
// steady-state MinShards·r once the loop has settled. The run also asserts
// the control loop itself: at least one scale-up and one scale-down must
// emerge from the measured load, no transition may breach the staleness
// cap, and the run must settle at MinShards.
func StressAutoscaleUnderFire(cfg AutoscaleStressConfig) (StressReport, error) {
	cfg.normalise()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   1.0, // lazy path throughout, as in the resize stress
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()

	perShard := int64(2 * cfg.Writers * cfg.BufferSize) // r = 2·N·b
	transitional := 2 * int64(cfg.MaxShards) * perShard
	final := int64(cfg.MinShards) * perShard
	rep := StressReport{Bound: int(transitional)}

	// The controller: one qualifying sample per decision (the conductor
	// paces ticks, so sustained windows would only slow the walk), near-zero
	// cooldown in manual time, and the staleness cap at exactly the
	// envelope the queriers enforce. HighWater is tiny relative to the real
	// deltas a 1ms manual-time sample sees, so any observed ingest is
	// up-pressure; LowWater keeps the mandatory hysteresis gap.
	mc := clock.NewManual(time.Unix(1<<20, 0))
	var capViolations atomic.Int64
	ctl, err := autoscale.New(
		capCheckTarget{CountMin: sk, budget: int(transitional), violations: &capViolations},
		autoscale.Policy{
			MinShards: cfg.MinShards, MaxShards: cfg.MaxShards,
			HighWater: 500, LowWater: 100,
			SustainedUp: 1, SustainedDown: 2,
			SampleEvery: time.Millisecond, Cooldown: time.Nanosecond,
			MaxTransitionalRelaxation: int(transitional),
			Clock:                     mc,
		})
	if err != nil {
		return StressReport{}, err
	}

	var completed, started atomic.Int64
	var doneResizing atomic.Bool
	var worst atomic.Int64
	stop := make(chan struct{})
	writersDone := make(chan struct{})
	var wg, qwg sync.WaitGroup

	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			acc := sk.NewAccumulator()
			i := 0
			query := func() int64 {
				i++
				if i%2 == 0 {
					return int64(sk.N())
				}
				sk.QueryInto(acc)
				return int64(acc.N())
			}
			resizeQuerier(&rep, stop, &completed, &started, &doneResizing,
				transitional, final, &worst, query)
		}()
	}

	// Warmup baseline before any writer starts, so every later tick's
	// ingest delta is real load.
	ctl.Tick()

	const hotKeys = 64
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				sk.Update(w, uint64((w*cfg.UpdatesPerWriter+i)%hotKeys))
				completed.Add(1)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	// Conductor phase 1 — the burst: tick the controller against the live
	// pressure until S reaches MaxShards, or the writers have finished and
	// two consecutive ticks saw no new ingest (every update is by then
	// counted, so at least one tick observed a positive delta and scaled
	// up).
	tick := func() {
		mc.Advance(time.Millisecond)
		ctl.Tick()
	}
	writersFinished := func() bool {
		select {
		case <-writersDone:
			return true
		default:
			return false
		}
	}
	zeroTicks := 0
	for sk.Shards() < cfg.MaxShards && zeroTicks < 2 {
		before := sk.Pressure().Ingested
		tick()
		if writersFinished() && sk.Pressure().Ingested == before {
			zeroTicks++
		} else {
			zeroTicks = 0
		}
		runtime.Gosched() // single-core friendliness: let writers run
	}

	// Conductor phase 2 — the lull: wait out the writers, then keep ticking
	// with zero load until the backlog drains and the controller walks S
	// back down to MinShards. Bounded in case the loop is broken — that
	// surfaces as FinalShards ≠ MinShards, not a hang.
	<-writersDone
	for i := 0; i < 100_000 && sk.Shards() > cfg.MinShards; i++ {
		tick()
		runtime.Gosched()
	}

	// Settle: the load is gone and S is pinned, so no further resizes can
	// fire. Flag the steady phase and let the queriers take a few answers
	// against the tight MinShards·r bound before stopping them.
	doneResizing.Store(true)
	for deadline := time.Now().Add(30 * time.Second); atomic.LoadInt64(&rep.PostResizeQueries) < int64(cfg.Queriers) &&
		time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(stop)
	qwg.Wait()

	st := ctl.Stats()
	rep.ScaleUps, rep.ScaleDowns = st.ScaleUps, st.ScaleDowns
	rep.Resizes = st.ScaleUps + st.ScaleDowns
	rep.FinalShards = sk.Shards()
	rep.CapViolations = capViolations.Load()
	rep.WorstDeficit = worst.Load()
	return rep, nil
}

// StressCountTotals drives a sharded Count-Min and checks its cross-shard
// total N() — the aggregate most sensitive to propagation lag, since every
// update contributes to it exactly once. Update keys cycle over a small hot
// set so all shards stay loaded.
//
// The check per query: let c1 be the ground-truth completed count read
// before the merged read and c2 the started count read after. Shard i's
// contribution misses at most r of shard i's updates completed at c1-time,
// so the merged total must satisfy  c1 − S·r ≤ answer ≤ c2.
func StressCountTotals(cfg StressConfig) (StressReport, error) {
	cfg.normalise()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   cfg.MaxError,
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()
	rep := StressReport{Bound: sk.Relaxation()}

	var completed, started atomic.Int64
	const hotKeys = 64

	// Eager prologue (single-threaded): while every shard is eager, each
	// completed update is immediately visible, so N() must be exact.
	if cfg.MaxError < 1 {
		for i := 0; sk.Eager(); i++ {
			started.Add(1)
			sk.Update(0, uint64(i%hotKeys))
			completed.Add(1)
			rep.EagerQueries++
			if got := int64(sk.N()); got != completed.Load() {
				rep.EagerViolations++
			}
		}
	}

	// Lazy phase: concurrent writers vs queriers.
	stop := make(chan struct{})
	var wg, qwg sync.WaitGroup
	bound := int64(rep.Bound)
	var worst atomic.Int64
	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			// Owned accumulator, reused across this querier's whole run: the
			// aggregate N() of a QueryInto fold must obey the same envelope
			// as the lock-free counter sum.
			acc := sk.NewAccumulator()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c1 := completed.Load()
				var got int64
				if i%2 == 0 {
					got = int64(sk.N())
				} else {
					sk.QueryInto(acc)
					got = int64(acc.N())
				}
				c2 := started.Load()
				atomic.AddInt64(&rep.Queries, 1)
				raiseMax(&worst, c1-bound-got)
				if got < c1-bound {
					atomic.AddInt64(&rep.LowerViolations, 1)
				}
				if got > c2 {
					atomic.AddInt64(&rep.UpperViolations, 1)
				}
				runtime.Gosched()
			}
		}()
	}
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				sk.Update(w, uint64((w*cfg.UpdatesPerWriter+i)%hotKeys))
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	rep.WorstDeficit = worst.Load()
	return rep, nil
}

// StressThetaDistinct drives a sharded Θ sketch with all-distinct keys kept
// below k per shard, so every shard stays in exact mode and the merged
// Union estimate is an exact count of propagated distinct keys. The same
// c1 − S·r ≤ answer ≤ c2 envelope then applies to the estimate.
func StressThetaDistinct(cfg StressConfig) (StressReport, error) {
	cfg.normalise()
	// Keep total distinct (eager prologue + lazy phase) ≤ k, well inside the
	// 2k exact-mode boundary of every shard gadget and of the union gadget,
	// so the estimate counts propagated distinct keys exactly.
	const lgK = 13
	prologue := cfg.Shards * core.DeriveEagerLimit(cfg.MaxError)
	if cap := (1 << lgK) / 2; prologue > cap {
		prologue = cap // the prologue loop stops at this many updates too
	}
	if budget := (1 << lgK) - prologue; cfg.Writers*cfg.UpdatesPerWriter > budget {
		cfg.UpdatesPerWriter = budget / cfg.Writers
	}
	sk, err := shard.NewTheta(lgK, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   cfg.MaxError,
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()
	rep := StressReport{Bound: sk.Relaxation()}

	var completed, started atomic.Int64

	if cfg.MaxError < 1 {
		// Cap the prologue at half the union's exact capacity: for large S
		// the combined eager window S·2/e² could otherwise outgrow the merge
		// Union's exact mode and flag sampling noise as violations.
		prologueCap := (1 << lgK) / 2
		for i := 0; sk.Eager() && i < prologueCap; i++ {
			started.Add(1)
			sk.Update(0, uint64(1)<<40|uint64(i)) // distinct, disjoint from lazy keys
			completed.Add(1)
			rep.EagerQueries++
			if got := sk.Estimate(); got != float64(completed.Load()) {
				rep.EagerViolations++
			}
		}
	}

	stop := make(chan struct{})
	var wg, qwg sync.WaitGroup
	bound := int64(rep.Bound)
	var worst atomic.Int64
	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			// Owned Union, reused across this querier's whole run: the
			// estimate of a QueryInto fold must obey the same envelope as
			// the pooled Estimate path.
			acc := sk.NewAccumulator()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c1 := completed.Load()
				var got int64
				if i%2 == 0 {
					got = int64(sk.Estimate())
				} else {
					sk.QueryInto(acc)
					got = int64(acc.Estimate())
				}
				c2 := started.Load()
				atomic.AddInt64(&rep.Queries, 1)
				raiseMax(&worst, c1-bound-got)
				if got < c1-bound {
					atomic.AddInt64(&rep.LowerViolations, 1)
				}
				if got > c2 {
					atomic.AddInt64(&rep.UpperViolations, 1)
				}
				runtime.Gosched()
			}
		}()
	}
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+2) << 40 // disjoint from the eager prologue keys
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				sk.Update(w, base+uint64(i))
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	rep.WorstDeficit = worst.Load()
	return rep, nil
}

// ViewStressConfig parameterises a view-under-fire stress run: the base
// workload of StressConfig served through a materialized merged view, with
// an optional live-resize schedule racing the refresher.
type ViewStressConfig struct {
	StressConfig
	// Schedule is the successive shard counts Resize moves through while the
	// view keeps refreshing; empty means no resizes (pure view stress).
	Schedule []int
}

func (c *ViewStressConfig) normalise() { c.StressConfig.normalise() }

// WindowStressConfig parameterises a window-rotation-under-fire stress run:
// the base workload of StressConfig ingested into a sharded Count-Min with a
// declared sliding window, a conductor goroutine expelling ring slots by
// explicit rotation, and an optional live-resize schedule racing both.
type WindowStressConfig struct {
	StressConfig
	// Slots is the ring's closed-interval capacity W. Default 4 — small
	// enough that a default run expels many slots, so the eviction path
	// (oldest slot folded into legacy) is genuinely under fire.
	Slots int
	// Decay, when in (0,1), additionally maintains the exponential decay
	// plane through every rotation, racing its scale-and-fold against the
	// writers. 0 leaves decay off.
	Decay float64
	// Schedule is the successive shard counts Resize moves through while the
	// rotator keeps firing; empty means no resizes (pure rotation stress).
	Schedule []int
}

func (c *WindowStressConfig) normalise() {
	c.StressConfig.normalise()
	if c.Slots == 0 {
		c.Slots = 4
	}
}

// bounds returns the envelope bounds for a window-under-fire run. A window
// rotation is an epoch swap at constant S: while its drain is in flight a
// query folds both epochs' live snapshots, so the in-rotation staleness is
// 2·S·r — the rotation-interval analogue of the resize transitional bound.
// With a resize schedule racing the rotator the worst transient is a
// rotation at the schedule's widest shard count, 2·max(S)·r, which also
// dominates every resize transitional (S_old+S_new)·r. Once the last resize
// has drained and the rotator has quiesced, queries are held to the tight
// steady-state S_final·r.
func (c *WindowStressConfig) bounds() (transitional, final int64) {
	perShard := int64(2 * c.Writers * c.BufferSize) // r = 2·N·b (OptParSketch)
	maxS, finalS := int64(c.Shards), int64(c.Shards)
	for _, s := range c.Schedule {
		if int64(s) > maxS {
			maxS = int64(s)
		}
		finalS = int64(s)
	}
	return 2 * maxS * perShard, finalS * perShard
}

// StressWindowRotateUnderFire plays the adversary against the sliding-window
// serving plane: writers hammer a sharded Count-Min whose windowed total
// WindowN() is raced by queriers while a conductor goroutine rotates the
// ring explicitly (RotateNow over a manual clock, so no rotation ever fires
// behind the checker's back) and a resizer walks the shard-count schedule
// underneath both. Every windowed answer is checked against the documented
// window bound — the relaxation of the live fold plus everything the ring
// has expelled, i.e. "S·r plus what fell off the back of the window":
//
//	c1 − floor − bound ≤ answer ≤ c2
//
// where c1/c2 are the ground-truth completed/started counts bracketing the
// query, floor is an upper bound on the updates the ring has expelled so
// far — the started count read right after rotation k−W completed, published
// BEFORE rotation k performs the expulsion and read by queriers AFTER their
// answer, so the loaded floor always covers the expulsions the answer could
// have missed — and bound is the transitional 2·max(S)·r while rotations or
// resizes may be in flight, tightening to S_final·r once both have quiesced.
// A lower breach means a rotation lost live-interval weight (e.g. dropped
// the carry a resize drained into the open interval); an upper breach means
// a slot was double-counted (e.g. folded into both the suffix-merge and the
// live epoch). The queriers alternate the pooled (WindowN) and caller-owned
// (WindowQueryInto) planes, and with Decay set additionally probe the
// decayed plane, which must never exceed the cumulative stream.
func StressWindowRotateUnderFire(cfg WindowStressConfig) (StressReport, error) {
	cfg.normalise()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   1.0, // lazy path throughout, as in the resize stress
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()

	// Manual clock never advanced: the background rotator never fires, so
	// every rotation below is the conductor's doing and the expelled-slot
	// floor is always published before the expulsion it covers.
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableWindow(shard.WindowConfig{
		Interval: time.Hour, Slots: cfg.Slots, Decay: cfg.Decay, Clock: clk,
	}); err != nil {
		return StressReport{}, err
	}

	transitional, final := cfg.bounds()
	rep := StressReport{Bound: int(transitional)}

	var completed, started atomic.Int64
	// expelledFloor is an upper bound on the update weight the ring has
	// expelled into the cumulative legacy plane: started-count snapshots
	// taken right after each rotation, republished one ring-length later,
	// just before the rotation that expels that slot.
	var expelledFloor atomic.Int64
	var resizesDone, doneResizing atomic.Bool
	var worst atomic.Int64
	stop := make(chan struct{})
	writersDone := make(chan struct{})
	var wg, qwg sync.WaitGroup

	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			acc := sk.NewAccumulator()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				bound := transitional
				post := doneResizing.Load()
				if post {
					bound = final
				}
				c1 := completed.Load()
				var got int64
				i++
				if i%2 == 0 {
					n, ok := sk.WindowN() // pooled windowed plane
					if !ok {
						// The window is never disabled during the run, so a
						// failed resolve is itself a violation — the serving
						// plane lost the declared window.
						atomic.AddInt64(&rep.LowerViolations, 1)
						continue
					}
					got = int64(n)
				} else {
					if !sk.WindowQueryInto(acc) { // caller-owned windowed plane
						atomic.AddInt64(&rep.LowerViolations, 1)
						continue
					}
					got = int64(acc.N())
				}
				// Read AFTER the answer: the floor only grows, and at every
				// instant it covers all expulsions performed so far, so a
				// post-answer read can only over-cover — never under.
				floor := expelledFloor.Load()
				c2 := started.Load()
				atomic.AddInt64(&rep.Queries, 1)
				if post {
					atomic.AddInt64(&rep.PostResizeQueries, 1)
				}
				raiseMax(&worst, c1-floor-bound-got)
				if got < c1-floor-bound {
					atomic.AddInt64(&rep.LowerViolations, 1)
				}
				if got > c2 {
					atomic.AddInt64(&rep.UpperViolations, 1)
				}
				if cfg.Decay > 0 && i%8 == 0 {
					// Decay plane under fire: no closed-form ground truth,
					// but a decayed count can never exceed the cumulative
					// stream (weights only shrink).
					if d, ok := sk.DecayedCount(uint64(i % 64)); ok && int64(d) > started.Load() {
						atomic.AddInt64(&rep.UpperViolations, 1)
					}
				}
				runtime.Gosched()
			}
		}()
	}

	const hotKeys = 64
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				sk.Update(w, uint64((w*cfg.UpdatesPerWriter+i)%hotKeys))
				completed.Add(1)
			}
		}(w)
	}

	rcfg := ResizeStressConfig{StressConfig: cfg.StressConfig, Schedule: cfg.Schedule}
	errc := make(chan error, 1)
	go func() {
		if len(cfg.Schedule) == 0 {
			resizesDone.Store(true)
			errc <- nil
			return
		}
		errc <- resizer(rcfg, sk.Resize, &completed, writersDone, &resizesDone, &rep.Resizes)
	}()

	// The conductor: publish the floor the imminent expulsion is covered by,
	// rotate, then snapshot started for the rotation that will expel this
	// slot one ring-length from now. It is the sole rotator, so after its
	// loop exits no rotation can be in flight and the steady-state bound
	// applies to every later query.
	conductorDone := make(chan struct{})
	go func() {
		defer close(conductorDone)
		var startedAfter []int64 // startedAfter[k-1]: started right after rotation k
		for {
			select {
			case <-stop:
				return
			default:
			}
			finished := false
			select {
			case <-writersDone:
				finished = true
			default:
			}
			if finished && resizesDone.Load() {
				doneResizing.Store(true)
				return
			}
			k := len(startedAfter) + 1
			if k > cfg.Slots {
				expelledFloor.Store(startedAfter[k-cfg.Slots-1])
				rep.Expulsions++
			}
			if !sk.RotateNow() {
				return
			}
			startedAfter = append(startedAfter, started.Load())
			rep.Rotations++
			runtime.Gosched()
		}
	}()

	wg.Wait()
	close(writersDone)
	err = <-errc

	// Let the settled phase produce checked queries: the conductor flips
	// doneResizing once the last resize has drained and its own last
	// rotation has returned, and the queriers then take answers against the
	// tight S_final·r bound. Bounded; a wedged plane surfaces as
	// PostResizeQueries == 0, not a hang.
	for deadline := time.Now().Add(30 * time.Second); err == nil &&
		atomic.LoadInt64(&rep.PostResizeQueries) < int64(cfg.Queriers) &&
		time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(stop)
	<-conductorDone
	qwg.Wait()
	rep.WorstDeficit = worst.Load()
	return rep, err
}

// StressViewUnderFire plays the adversary against the materialized-view
// serving plane: writers hammer a sharded Count-Min whose merged queries are
// answered from a published view, a conductor goroutine paces refreshes
// explicitly (RefreshViewNow over a manual clock, so the view NEVER
// refreshes behind the checker's back), and a resizer walks the schedule
// underneath both. The checked envelope is the documented view bound — the
// live fold's staleness plus one refresh interval — expressed against
// ground truth:
//
//	floor − bound ≤ answer ≤ c2
//
// where floor is the completed-update count read immediately BEFORE the
// most recently published refresh began its fold (so floor is exactly the
// "one refresh interval ago" ground truth: everything completed by then is
// either folded into the published view or inside the fold's own S·r
// window), bound is S·r — widened to the transitional (S_old+S_new)·r while
// resizes may be in flight, tightened to S_final·r once the last resize has
// drained AND a fresh refresh has published — and c2 is the started count
// read after the query (a view must never invent weight). A lower breach
// means a refresh published a fold that lost committed state (e.g. dropped
// the draining epoch's legacy); an upper breach means a fold double-counted
// (e.g. folded one buffer into both halves of the double buffer).
func StressViewUnderFire(cfg ViewStressConfig) (StressReport, error) {
	cfg.normalise()
	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{
		Shards:     cfg.Shards,
		Writers:    cfg.Writers,
		BufferSize: cfg.BufferSize,
		MaxError:   1.0, // lazy path throughout, as in the resize stress
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()

	// Manual clock never advanced: the background ticker never fires and
	// MaxAge −1 never expires the view, so every query below is genuinely
	// served from the published buffer and every publication is the
	// conductor's doing.
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if err := sk.EnableView(shard.ViewConfig{
		RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
	}); err != nil {
		return StressReport{}, err
	}

	rcfg := ResizeStressConfig{StressConfig: cfg.StressConfig, Schedule: cfg.Schedule}
	var transitional, final int64
	if len(cfg.Schedule) == 0 {
		final = int64(cfg.Shards) * int64(2*cfg.Writers*cfg.BufferSize)
		transitional = final
	} else {
		transitional, final = rcfg.bounds()
	}
	rep := StressReport{Bound: int(transitional)}

	var completed, started atomic.Int64
	// publishedFloor is the ground-truth completed count read just before
	// the latest published refresh started folding. Stored AFTER the
	// publication, so a querier that observes floor F is guaranteed the view
	// it subsequently acquires folded at least the state of that refresh.
	var publishedFloor atomic.Int64
	var resizesDone, doneResizing atomic.Bool
	var worst atomic.Int64
	stop := make(chan struct{})
	writersDone := make(chan struct{})
	var wg, qwg sync.WaitGroup

	for q := 0; q < cfg.Queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			acc := sk.NewAccumulator()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				bound := transitional
				post := doneResizing.Load()
				if post {
					bound = final
				}
				floor := publishedFloor.Load()
				var got int64
				i++
				if i%2 == 0 {
					got = int64(sk.N()) // pooled plane, through the view
				} else {
					sk.QueryInto(acc) // caller-owned plane, through the view
					got = int64(acc.N())
				}
				c2 := started.Load()
				atomic.AddInt64(&rep.Queries, 1)
				if post {
					atomic.AddInt64(&rep.PostResizeQueries, 1)
				}
				raiseMax(&worst, floor-bound-got)
				if got < floor-bound {
					atomic.AddInt64(&rep.LowerViolations, 1)
				}
				if got > c2 {
					atomic.AddInt64(&rep.UpperViolations, 1)
				}
				runtime.Gosched()
			}
		}()
	}

	// The conductor: refresh, then publish the pre-fold ground truth as the
	// queriers' floor. The very first EnableView refresh published an empty
	// (pre-ingest) view, floor 0 — consistent.
	conductorDone := make(chan struct{})
	go func() {
		defer close(conductorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rd := resizesDone.Load()
			c := completed.Load()
			if !sk.RefreshViewNow() {
				return
			}
			publishedFloor.Store(c)
			atomic.AddInt64(&rep.Refreshes, 1)
			if rd {
				// This refresh began after the final resize had fully
				// drained: from here on the published fold owes nothing to
				// transitional epochs and the tight S_final·r bound applies.
				doneResizing.Store(true)
			}
			runtime.Gosched()
		}
	}()

	const hotKeys = 64
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				started.Add(1)
				sk.Update(w, uint64((w*cfg.UpdatesPerWriter+i)%hotKeys))
				completed.Add(1)
			}
		}(w)
	}

	errc := make(chan error, 1)
	go func() {
		if len(cfg.Schedule) == 0 {
			resizesDone.Store(true)
			errc <- nil
			return
		}
		err := resizer(rcfg, sk.Resize, &completed, writersDone, &resizesDone, &rep.Resizes)
		errc <- err
	}()

	wg.Wait()
	close(writersDone)
	err = <-errc

	// Let the settled phase produce checked queries: wait until the
	// conductor has published a post-resize refresh and the queriers have
	// taken answers against the tight bound. Bounded; a wedged refresher
	// surfaces as PostResizeQueries == 0, not a hang.
	for deadline := time.Now().Add(30 * time.Second); err == nil &&
		atomic.LoadInt64(&rep.PostResizeQueries) < int64(cfg.Queriers) &&
		time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(stop)
	<-conductorDone
	qwg.Wait()
	rep.WorstDeficit = worst.Load()
	return rep, err
}
