package adversary

// Live stress engine for the sharded registry: where the rest of this
// package simulates the Section 6 adversaries analytically, this file plays
// the adversary against the real implementation. Writers hammer a sharded
// sketch while queriers race merged reads, and relax.Oracle checks every
// answer against the relaxation window with the bound in force: exactness
// in the eager phase, S·r = S·2·N·b in steady state (Theorem 1 per shard,
// summed over the fold), wider while a resize or window rotation drains.
//
// One engine, Stress, runs every scenario; a StressConfig turns on the
// parts a scenario needs. Queriers alternate the two merged-query planes —
// the pooled path (family query methods drawing a reused accumulator from
// the sketch's sync.Pool) and the caller-owned path (one accumulator per
// querier, reset and refolded on every odd query) — so the run also asserts
// that accumulator reuse never leaks state across queries: a stale fold
// would surface as a violation in either direction.

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/countmin"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/relax"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// StressConfig parameterises a stress run. Every scenario field left at its
// zero value leaves that part of the run off.
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
	// Family is the sketch under fire: wire.FamilyCountMin (the default)
	// checks the total N() over a hot key set — every update counts exactly
	// once — wire.FamilyQuantiles the item count N() of the keys taken as
	// values, and wire.FamilyTheta the distinct count of all-distinct keys,
	// the stream capped so the estimate is an exact count.
	Family wire.Family
	// Schedule is the successive shard counts Resize moves through,
	// triggered at evenly spaced points of the ingested stream.
	Schedule []int
	// View serves merged queries from a materialized view the conductor
	// refreshes explicitly (RefreshViewNow over a manual clock).
	View bool
	// Window, when Slots > 0, declares a sliding window whose ring the
	// conductor rotates explicitly; queriers then read the windowed plane.
	Window StressWindow
	// Autoscale, when MaxShards > 0, hands resizing to a live
	// autoscale.Controller instead of Schedule.
	Autoscale StressAutoscale
}

// StressWindow is the sliding window a stress run declares: Slots is the
// ring's capacity W (keep it small, so a run expels many slots and the
// eviction path is under fire); Decay in (0,1) also maintains the decay
// plane through every rotation (Count-Min only).
type StressWindow struct {
	Slots int
	Decay float64
}

// StressAutoscale is the shard range of an autoscale run's controller; the
// run must settle at MinShards (default 1) once the writers quiesce.
type StressAutoscale struct{ MinShards, MaxShards int }

func (c *StressConfig) normalise() {
	c.Shards = cmp.Or(c.Shards, 4)
	c.Writers = cmp.Or(c.Writers, 4)
	c.BufferSize = cmp.Or(c.BufferSize, 4)
	c.UpdatesPerWriter = cmp.Or(c.UpdatesPerWriter, 20000)
	c.Queriers = cmp.Or(c.Queriers, 2)
	c.MaxError = cmp.Or(c.MaxError, 1.0)
	c.Family = cmp.Or(c.Family, wire.FamilyCountMin)
	if c.Autoscale.MaxShards > 0 {
		c.Schedule = nil
		c.Autoscale.MinShards = max(c.Autoscale.MinShards, 1)
	}
}

// bounds returns, for the per-shard relaxation r = 2·N·b, the bound
// queries are held to while the run may still be resizing or rotating, and
// the steady-state S_final·r once it has settled (retired state is folded
// exactly, so a drained transition leaves no staleness behind):
//
//   - a resize folds both epochs' live snapshots: (S_old+S_new)·r for the
//     schedule's widest consecutive pair;
//   - a window rotation is an epoch swap at constant S: 2·S·r at the
//     schedule's largest S, which dominates every resize pair;
//   - an autoscale transition keeps both epochs within MaxShards (the
//     policy cap is exactly 2·MaxShards·r) and settles at MinShards.
func (c *StressConfig) bounds(r int64) (transitional, final int64) {
	if a := c.Autoscale; a.MaxShards > 0 {
		return 2 * int64(a.MaxShards) * r, int64(a.MinShards) * r
	}
	prev, widest := int64(c.Shards), int64(c.Shards)
	transitional = prev * r
	for _, s := range c.Schedule {
		transitional = max(transitional, (prev+int64(s))*r)
		prev, widest = int64(s), max(widest, int64(s))
	}
	if c.Window.Slots > 0 {
		transitional = 2 * widest * r
	}
	return transitional, prev * r
}

// StressReport is the outcome of a stress run. A correct implementation
// yields zero violations of either kind.
type StressReport struct {
	// Bound is the widest relaxation queries were checked against: S·r, or
	// the transitional bound of a run that resizes or rotates.
	Bound int
	// MaxStaleness is the most updates one answer missed of those it owed
	// (see Stress: a view owes its published floor, a window the completed
	// count less its expelled weight); MaxStaleness ÷ Bound is how close the
	// run came to the wall, never above 1 without a LowerViolation.
	MaxStaleness int64
	// Queries is the number of answers checked after the eager prologue.
	Queries int64
	// LowerViolations counts answers that missed more completed updates
	// than the bound in force, and windowed reads that found no window;
	// UpperViolations counts answers above the updates started (invented).
	LowerViolations, UpperViolations int64
	// EagerQueries counts queries issued during the eager prologue;
	// EagerViolations counts those whose answer was not exact.
	EagerQueries, EagerViolations int64
	// Resizes counts live Resize transitions completed during the run.
	Resizes int64
	// PostResizeQueries counts queries checked against S_final·r once the
	// run had settled: resizes drained, a view refreshed, the rotator idle.
	PostResizeQueries int64
	// ScaleUps / ScaleDowns split an autoscale run's Resizes by direction;
	// FinalShards is S once the run quiesced.
	ScaleUps, ScaleDowns int64
	FinalShards          int
	// CapViolations counts controller transitions whose (S_old+S_new)·r
	// exceeded the policy's MaxTransitionalRelaxation, a cap never breached.
	CapViolations int64
	// Refreshes counts view publications the conductor completed.
	Refreshes int64
	// Rotations counts window rotations, Expulsions those that expelled a
	// full ring's oldest slot: > 0 certifies the eviction path ran.
	Rotations, Expulsions int64
}

// plane selects what a reader answers.
type plane uint8

const (
	cumulative plane = iota
	windowed
	decayed
)

// sketch is the surface of the sharded families the engine drives.
type sketch interface {
	autoscale.Target
	Update(lane int, key uint64)
	Eager() bool
	EnableView(shard.ViewConfig) error
	RefreshViewNow() bool
	EnableWindow(shard.WindowConfig) error
	RotateNow() bool
	Close()
}

// reader answers one querier's i-th read of a plane: through the pooled
// accumulator on even i, through the querier's own on odd i. ok is false
// when the plane is not enabled.
type reader func(i int, p plane) (v int64, ok bool)

// owned is the caller-owned query surface both families share.
type owned[A any] interface {
	NewAccumulator() A
	QueryInto(A)
	WindowQueryInto(A) bool
}

// newReader builds a family's reader constructor from its pooled reads and
// the value of an owned accumulator. The decay plane is read pooled only.
func newReader[A any](sk owned[A], pooled func(p plane, i int) (int64, bool), value func(A) int64) func() reader {
	return func() reader {
		acc := sk.NewAccumulator()
		return func(i int, p plane) (int64, bool) {
			if i%2 == 0 || p == decayed {
				return pooled(p, i)
			}
			ok := true
			if p == windowed {
				ok = sk.WindowQueryInto(acc)
			} else {
				sk.QueryInto(acc)
			}
			return value(acc), ok
		}
	}
}

// family is one row of the family table.
type family struct {
	// open builds the sketch and one querier's reader constructor.
	open func(shard.Config) (sketch, func() reader, error)
	// key maps the engine's all-distinct key stream into the family's.
	key func(uint64) uint64
	// maxStream caps the whole run's updates, 0 for no cap.
	maxStream int
}

const (
	hotKeys    = 64 // Count-Min key set: small, so every shard stays loaded
	thetaLgK   = 13
	quantilesK = 128
)

// quantilesKeys feeds the engine's keys to a Quantiles sketch as values.
type quantilesKeys struct{ *shard.Quantiles }

func (q quantilesKeys) Update(lane int, k uint64) { q.Quantiles.Update(lane, float64(k)) }

var families = map[wire.Family]family{
	wire.FamilyCountMin: {
		open: func(c shard.Config) (sketch, func() reader, error) {
			sk, err := shard.NewCountMin(0.001, 0.01, c)
			return sk, newReader(sk, func(p plane, i int) (int64, bool) {
				switch p {
				case windowed:
					n, ok := sk.WindowN()
					return int64(n), ok
				case decayed:
					n, ok := sk.DecayedCount(uint64(i % hotKeys))
					return int64(n), ok
				}
				return int64(sk.N()), true
			}, func(acc *countmin.Sketch) int64 { return int64(acc.N()) }), err
		},
		key: func(k uint64) uint64 { return k % hotKeys },
	},
	wire.FamilyQuantiles: {
		open: func(c shard.Config) (sketch, func() reader, error) {
			sk, err := shard.NewQuantiles(quantilesK, c)
			return quantilesKeys{sk}, newReader(sk, func(p plane, _ int) (int64, bool) {
				switch p {
				case windowed:
					n, ok := sk.WindowN()
					return int64(n), ok
				case decayed:
					return 0, false
				}
				return int64(sk.N()), true
			}, func(acc *quantiles.Accumulator) int64 { return int64(acc.N()) }), err
		},
		key: func(k uint64) uint64 { return k },
	},
	wire.FamilyTheta: {
		open: func(c shard.Config) (sketch, func() reader, error) {
			sk, err := shard.NewTheta(thetaLgK, c)
			return sk, newReader(sk, func(p plane, _ int) (int64, bool) {
				switch p {
				case windowed:
					est, ok := sk.WindowEstimate()
					return int64(est), ok
				case decayed:
					return 0, false
				}
				return int64(sk.Estimate()), true
			}, func(acc *theta.Union) int64 { return int64(acc.Estimate()) }), err
		},
		key: func(k uint64) uint64 { return k },
		// k distinct keys in all, well inside the 2k exact-mode boundary of
		// every shard gadget and of the union gadget.
		maxStream: 1 << thetaLgK,
	},
}

// run is the shared state of one Stress call.
type run struct {
	cfg                 StressConfig
	sk                  sketch
	o                   *relax.Oracle
	rep                 StressReport
	transitional, final int64
	// resized is set once the last resize has drained; pending counts the
	// settle conditions outstanding, and final applies once it reaches 0.
	resized atomic.Bool
	pending atomic.Int32
	// viewFloor is the completed count read just before the latest
	// published refresh began its fold; expelled bounds from above the
	// update weight the ring has expelled into the cumulative legacy plane.
	viewFloor, expelled              atomic.Int64
	lost, capViolations, postQueries atomic.Int64 // lost: reads that found no window
	writersDone, stop                chan struct{}
}

// Stress plays one scenario against a live sharded sketch and reports what
// the oracle saw. Every merged answer is held to c1 − bound ≤ answer ≤ c2:
// c2 the started count after the read, bound the bound in force, and c1 the
// completed count the answer owes — the count before the read, replaced for
// a view by the floor its refresh published and lowered for a window by the
// weight the ring has expelled. The lag a plane has on purpose thus moves
// c1, never the bound, so MaxStaleness ÷ Bound is the run's margin. A
// conductor runs whichever of the resize schedule, the autoscale
// controller, view refreshes and window rotations the config turns on; one
// bounded settle phase then holds answers to the steady-state bound. A
// lower breach means lost state (the draining epoch's legacy, a resize's
// carry), an upper breach double-counted state (a slot in both the
// suffix-merge and the live epoch).
func Stress(cfg StressConfig) (StressReport, error) {
	cfg.normalise()
	fam, ok := families[cfg.Family]
	if !ok {
		return StressReport{}, fmt.Errorf("adversary: no stress row for family %v", cfg.Family)
	}
	prologueCap := -1
	if fam.maxStream > 0 {
		// Half the cap at most for the eager prologue: for large S the
		// combined eager window S·2/e² could otherwise outgrow it.
		prologueCap = min(cfg.Shards*core.DeriveEagerLimit(cfg.MaxError), fam.maxStream/2)
		cfg.UpdatesPerWriter = min(cfg.UpdatesPerWriter, (fam.maxStream-prologueCap)/cfg.Writers)
	}
	sk, newReader, err := fam.open(shard.Config{
		Shards: cfg.Shards, Writers: cfg.Writers, BufferSize: cfg.BufferSize, MaxError: cfg.MaxError,
	})
	if err != nil {
		return StressReport{}, err
	}
	defer sk.Close()
	r := &run{cfg: cfg, sk: sk, o: relax.NewOracle(),
		writersDone: make(chan struct{}), stop: make(chan struct{})}
	write := func(lane int, k uint64) {
		r.o.Started()
		sk.Update(lane, fam.key(k))
		r.o.Completed()
	}

	// Eager prologue (single-threaded): while every shard is eager, each
	// completed update is immediately visible, so the bound in force is 0.
	var eager relax.Tally
	if cfg.MaxError < 1 {
		read := newReader()
		for i := 0; sk.Eager() && i != prologueCap; i++ {
			write(0, 1<<40|uint64(i)) // distinct, disjoint from the writers' keys
			c1 := r.o.Invoke()
			v, _ := read(i, cumulative)
			r.o.Respond(c1, v, 0)
		}
		eager = r.o.Tally()
		r.rep.EagerQueries, r.rep.EagerViolations = eager.Queries, eager.Lower+eager.Upper
	}

	// Manual clock never advanced: no background refresh or rotation ever
	// fires, so every publication and its floor are the conductor's doing.
	clk := clock.NewManual(time.Unix(1<<20, 0))
	if cfg.View {
		if err := sk.EnableView(shard.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: clk}); err != nil {
			return StressReport{}, err
		}
	}
	if cfg.Window.Slots > 0 {
		if err := sk.EnableWindow(shard.WindowConfig{
			Interval: time.Hour, Slots: cfg.Window.Slots, Decay: cfg.Window.Decay, Clock: clk,
		}); err != nil {
			return StressReport{}, err
		}
	}
	r.transitional, r.final = cfg.bounds(int64(sk.ShardRelaxation()))
	r.rep.Bound = int(r.transitional)
	var walk func()
	if cfg.Autoscale.MaxShards > 0 {
		if walk, err = r.controller(); err != nil {
			return StressReport{}, err
		}
	}

	var duties, queriers, writers sync.WaitGroup
	r.pending.Store(1) // the resizes
	duty := func(on bool, f func()) {
		if on {
			r.pending.Add(1)
			duties.Add(1)
			go func() {
				defer duties.Done()
				f()
			}()
		}
	}
	duty(cfg.View, r.refresh)
	duty(cfg.Window.Slots > 0, r.rotate)
	for q := 0; q < cfg.Queriers; q++ {
		queriers.Add(1)
		go func(read reader) {
			defer queriers.Done()
			r.query(read)
		}(newReader())
	}
	for w := 0; w < cfg.Writers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				write(w, uint64(w+2)<<40+uint64(i))
			}
		}(w)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.resize(walk) }()
	writers.Wait()
	close(r.writersDone)
	err = <-errc

	// Settle: let the queriers take answers against the steady-state bound.
	// Bounded; a wedged conductor surfaces as PostResizeQueries == 0.
	for deadline := time.Now().Add(30 * time.Second); err == nil &&
		r.postQueries.Load() < int64(cfg.Queriers) && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(r.stop)
	duties.Wait()
	queriers.Wait()

	t := r.o.Tally()
	r.rep.MaxStaleness = t.MaxStaleness
	r.rep.Queries = t.Queries - eager.Queries
	r.rep.LowerViolations = t.Lower - eager.Lower + r.lost.Load()
	r.rep.UpperViolations = t.Upper - eager.Upper
	r.rep.PostResizeQueries = r.postQueries.Load()
	r.rep.FinalShards = sk.Shards()
	r.rep.CapViolations = r.capViolations.Load()
	return r.rep, err
}

// query is one querier: it holds every answer to the envelope of Stress
// through the oracle until the run stops.
func (r *run) query(read reader) {
	p := cumulative
	if r.cfg.Window.Slots > 0 {
		p = windowed
	}
	for i := 0; !closed(r.stop); i++ {
		post := r.pending.Load() == 0
		bound := r.transitional
		if post {
			bound = r.final
		}
		owed := r.o.Invoke()
		if r.cfg.View {
			// Read before the answer: the view the read then acquires folded
			// at least the state of the refresh that published this floor.
			owed = r.viewFloor.Load()
		}
		v, ok := read(i, p)
		if !ok {
			// The window is never disabled during the run, so a failed
			// resolve means the serving plane lost the declared window.
			r.lost.Add(1)
			continue
		}
		// Read after the answer: the floor only grows and always covers the
		// expulsions performed so far, so a late read can only over-cover.
		owed -= r.expelled.Load()
		r.o.Respond(owed, v, bound)
		if post {
			r.postQueries.Add(1)
		}
		if r.cfg.Window.Decay > 0 && i%8 == 0 {
			// The decay plane has no closed-form ground truth, but weights
			// only shrink: a decayed count owes no completed update
			// (c1 = r = 0) and may never exceed the stream.
			if d, ok := read(i, decayed); ok {
				r.o.Respond(0, d, 0)
			}
		}
		runtime.Gosched()
	}
}

// resize makes the run's resizes — the controller's walk, or the
// schedule's, each once the stream crosses the next evenly spaced threshold
// (or the writers finish) — and then settles them.
func (r *run) resize(walk func()) error {
	if walk != nil {
		walk()
	}
	total := int64(r.cfg.Writers * r.cfg.UpdatesPerWriter)
	for i, s := range r.cfg.Schedule {
		threshold := total * int64(i+1) / int64(len(r.cfg.Schedule)+1)
		for r.o.StartedCount() < threshold && !closed(r.writersDone) {
			runtime.Gosched()
		}
		if err := r.sk.Resize(s); err != nil {
			return err
		}
		r.rep.Resizes++
	}
	r.resized.Store(true)
	r.pending.Add(-1)
	return nil
}

// controller builds an autoscale run's controller over a manual clock and
// takes its baseline sample before any writer starts. The policy: one
// sample per decision (ticks are paced), near-zero cooldown, the staleness
// cap at exactly the queriers' envelope, and a HighWater so low that any
// ingest is up-pressure (LowWater keeps the hysteresis gap). The returned
// walk is the burst — tick until S reaches MaxShards, or two ticks after
// the writers finished saw no new ingest — then the lull: tick with zero
// load until S is back at MinShards, bounded so a broken loop surfaces as
// FinalShards ≠ MinShards.
func (r *run) controller() (walk func(), err error) {
	a := r.cfg.Autoscale
	mc := clock.NewManual(time.Unix(1<<20, 0))
	ctl, err := autoscale.New(
		capCheckTarget{sketch: r.sk, budget: int(r.transitional), violations: &r.capViolations},
		autoscale.Policy{
			MinShards: a.MinShards, MaxShards: a.MaxShards,
			HighWater: 500, LowWater: 100,
			SustainedUp: 1, SustainedDown: 2,
			SampleEvery: time.Millisecond, Cooldown: time.Nanosecond,
			MaxTransitionalRelaxation: int(r.transitional),
			Clock:                     mc,
		})
	if err != nil {
		return nil, err
	}
	ctl.Tick()
	tick := func() {
		mc.Advance(time.Millisecond)
		ctl.Tick()
		runtime.Gosched() // single-core friendliness: let writers run
	}
	return func() {
		for zero := 0; r.sk.Shards() < a.MaxShards && zero < 2; {
			before := r.sk.Pressure().Ingested
			tick()
			if closed(r.writersDone) && r.sk.Pressure().Ingested == before {
				zero++
			} else {
				zero = 0
			}
		}
		<-r.writersDone
		for i := 0; i < 100_000 && r.sk.Shards() > a.MinShards; i++ {
			tick()
		}
		st := ctl.Stats()
		r.rep.ScaleUps, r.rep.ScaleDowns = st.ScaleUps, st.ScaleDowns
		r.rep.Resizes = st.ScaleUps + st.ScaleDowns
	}, nil
}

// capCheckTarget wraps the sketch the controller drives, recording any
// transition whose combined window (S_old+S_new)·r would exceed the
// policy's staleness cap — which a correct controller never requests.
type capCheckTarget struct {
	sketch
	budget     int
	violations *atomic.Int64
}

func (t capCheckTarget) Resize(s int) error {
	if from := t.Shards(); t.budget > 0 && (from+s)*t.ShardRelaxation() > t.budget {
		t.violations.Add(1)
	}
	return t.sketch.Resize(s)
}

// refresh is the view conductor: refresh, then publish the pre-fold ground
// truth as the queriers' floor (EnableView's own refresh published an empty
// view, floor 0). The first refresh begun after the last resize settles the
// view: its fold owes nothing to transitional epochs.
func (r *run) refresh() {
	settled := false
	for !closed(r.stop) {
		resized := r.resized.Load()
		c := r.o.Invoke()
		if !r.sk.RefreshViewNow() {
			return
		}
		r.viewFloor.Store(c)
		r.rep.Refreshes++
		if resized && !settled {
			settled = true
			r.pending.Add(-1)
		}
		runtime.Gosched()
	}
}

// rotate is the window conductor: publish the floor the imminent expulsion
// is covered by (the started count read right after the rotation that
// filled the slot about to go), rotate, then snapshot started for the
// expulsion one ring-length from now. It is the sole rotator, so once it
// stops — writers finished, resizes settled — no rotation is in flight.
func (r *run) rotate() {
	slots := r.cfg.Window.Slots
	var startedAfter []int64 // startedAfter[k-1]: started right after rotation k
	for k := 1; !closed(r.stop); k++ {
		if closed(r.writersDone) && r.resized.Load() {
			r.pending.Add(-1)
			return
		}
		if k > slots {
			r.expelled.Store(startedAfter[k-slots-1])
			r.rep.Expulsions++
		}
		if !r.sk.RotateNow() {
			return
		}
		startedAfter = append(startedAfter, r.o.StartedCount())
		r.rep.Rotations++
		runtime.Gosched()
	}
}

// closed reports whether ch has been closed.
func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
