package main

import (
	"fmt"
	"math"
	"time"
)

// config is what the command line fixes for one run of one workload.
type config struct {
	seed       uint64
	seconds    int    // nominal length of the timed section
	trace      bool   // traced run: per-layer metrics, spans, ledger
	root       string // repository root (holds cmd/sketchd and bench/)
	breakCheck bool   // self-test: expect one Count-Min item too many
}

// timedPasses is the number of timed passes of every workload; the pass
// length follows from -seconds so that the work per pass is fixed for a
// given command line, whatever the code under test does with it.
const timedPasses = 9

// passSeconds is the nominal length of one pass.
func (c config) passSeconds() float64 { return float64(c.seconds) / timedPasses }

// passData is what one pass measured.
type passData struct {
	wall  time.Duration
	items int64         // items whose update completed (all families together)
	cpu   time.Duration // CPU of the process under test during the pass
	rssMB float64       // peak RSS of the process under test during the pass
	ack   map[string][]float64
	qry   map[string][]float64
	// Open loop only: how late the generator handed each operation over, and
	// how many operations missed the latency limit.
	genLate         []float64
	overLimit, opsN int64
	// Staleness probes (library workloads): propagation backlog and
	// completed-but-not-yet-visible items, both in items.
	backlog, stale []float64
	staleMaxFrac   float64
	relaxation     int64 // Σ Relaxation() over live tenants at the end of the pass
	steal          int64 // /proc/stat steal ticks accrued during the pass
	counters       map[string]float64
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup starts the system under test: registry or daemon, connections,
	// long-lived tenants. It is timed into setup_s.
	setup() error
	// pass runs one pass of fixed work and checks its outputs. The warm-up
	// pass of a set-up is the same call.
	pass(sp *tracer) (passData, error)
	// teardown stops what setup started and runs the end-of-run checks.
	teardown() error
	// clockBound reports whether a pass lasts a fixed wall time whatever the
	// machine's speed (an open loop follows its schedule); the set-up time
	// and the completed rate of such a workload are not scaled to the
	// nominal machine.
	clockBound() bool
	// layer names the layer the harness calls into: "registry" or "client".
	layer() string
	// extras are per-layer metrics only this workload can measure.
	extras() metricSet
}

// runResult is everything one run of one workload produced.
type runResult struct {
	workload  string
	cfg       config
	metrics   metricSet
	attempted int64
	failed    int64
	failures  []string
	env       env
	setupS    float64 // the set-up as measured, warm-up pass included
	passes    []passData
	refs      []reference // the set-up ran between refs[0] and refs[1], pass i between refs[i+1] and refs[i+2]
	kept      []int       // the passes the run values are taken from
	speed     float64     // the machine's speed during the run relative to the nominal machine (machineSpeed)
}

func newWorkload(name string, cfg config, tl *tally) (workload, error) {
	switch name {
	case "lib_ingest":
		return newLib(cfg, tl, libIngest), nil
	case "lib_mixed":
		return newLib(cfg, tl, libMixed), nil
	case "served_ingest":
		return newServed(cfg, tl, false)
	case "served_open":
		return newServed(cfg, tl, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// runWorkload sets the workload up, runs the timed passes between reference
// kernels and folds the passes into metrics.
func runWorkload(name string, cfg config) (*runResult, error) {
	steal0 := stealTicks()
	tl := &tally{}
	w, err := newWorkload(name, cfg, tl)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ref, err := newReferee()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	res := &runResult{workload: name, cfg: cfg, metrics: metricSet{}}

	res.refs = []reference{ref.take()}
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	if _, err := w.pass(nil); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: warm-up pass: %w", name, err)
	}
	res.setupS = time.Since(t0).Seconds()
	res.refs = append(res.refs, ref.take())

	var traced []bool
	for i := 0; i < timedPasses; i++ {
		// A traced run records spans on every other pass, so the same run
		// also measures what recording costs.
		sp := tr
		if i%2 == 1 {
			sp = nil
		}
		stealBefore := stealTicks()
		pd, err := w.pass(sp)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: pass %d: %w", name, i, err)
		}
		pd.steal = stealTicks() - stealBefore
		res.refs = append(res.refs, ref.take())
		tr.readCounters(pd.counters)
		res.passes = append(res.passes, pd)
		traced = append(traced, sp != nil)
	}
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", name, err)
	}

	var spins, walks []float64
	for _, r := range res.refs {
		spins = append(spins, r.spinMS)
		walks = append(walks, r.walkMS)
	}
	keep, disturbed := undisturbed(spins[1:])
	res.kept = keep
	res.speed = machineSpeed(walks)
	passes := res.passes
	if cfg.trace {
		res.metrics.overlay(layerMetrics(w.layer(), passes, keep))
		res.metrics.overlay(w.extras())
		res.metrics.set("harness.ref_spin_ms", median(spins), len(spins))
		res.metrics.set("harness.ref_walk_ms", median(walks), len(walks))
		res.metrics.set("harness.disturbed_frac", disturbed, len(passes))
		res.metrics.set("harness.trace_overhead_frac", traceOverhead(passes, traced), len(passes))
		path := fmt.Sprintf("%s/bench/out/trace-%s.json", cfg.root, name)
		if err := tr.write(path, name, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", name, err)
		}
		printSelfTimes(name, path, tr)
	} else {
		res.metrics.overlay(endToEndMetrics(passes, keep, res.speed, w.clockBound()))
		setup := res.setupS
		if !w.clockBound() {
			setup *= res.speed
		}
		res.metrics.set("setup_s", setup, 1)
		res.metrics.set("relaxation_items", float64(passes[len(passes)-1].relaxation), 1)
	}
	res.attempted, res.failed = tl.attempted.Load(), tl.failed.Load()
	res.failures = tl.msgs
	res.env = readEnv(steal0)
	return res, nil
}

// classGM is the geometric mean over classes of the class-median latency of
// one pass; classes with no sample in the pass are left out.
func classGM(byClass map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byClass {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

func (p *passData) ingestMitemsS() float64 { return float64(p.items) / p.wall.Seconds() / 1e6 }
func (p *passData) cpuUSItem() float64     { return p.cpu.Seconds() * 1e6 / float64(p.items) }

// endToEndMetrics folds the kept passes into the run's end-to-end values:
// each is the median over passes of the pass's own figure, with every
// duration the machine's speed sets expressed at the nominal machine's speed
// (see machineSpeed). The completed rate of a clock-bound workload is set by
// its schedule and stays as measured; so does peak RSS.
func endToEndMetrics(passes []passData, keep []int, speed float64, clockBound bool) metricSet {
	var ingest, cpu, qgm, agm, rss []float64
	for _, i := range keep {
		p := &passes[i]
		ingest = append(ingest, p.ingestMitemsS())
		cpu = append(cpu, p.cpuUSItem())
		qgm = append(qgm, classGM(p.qry))
		agm = append(agm, classGM(p.ack))
		rss = append(rss, p.rssMB)
	}
	rate := median(ingest)
	if !clockBound {
		rate /= speed
	}
	m := metricSet{}
	m.set("ingest_mitems_s", rate, len(ingest))
	m.set("cpu_us_item", median(cpu)*speed, len(cpu))
	m.set("query_p50_gm_us", median(qgm)*speed, len(qgm))
	m.set("ack_p50_gm_us", median(agm)*speed, len(agm))
	m.set("peak_rss_mb", median(rss), len(rss))
	return m
}

// layerMetrics derives the per-layer metrics a workload's own calls give:
// batch and query latency per class under the calling layer's name, the
// staleness probes and the open-loop generator's health.
func layerMetrics(layer string, passes []passData, keep []int) metricSet {
	pool := func(get func(*passData) []float64) []float64 {
		var all []float64
		for _, i := range keep {
			all = append(all, get(&passes[i])...)
		}
		return all
	}
	m := metricSet{}
	batch := "registry.batch_p50_us."
	if layer == "client" {
		batch = "client.flush_p50_us."
	}
	for _, f := range families {
		xs := pool(func(p *passData) []float64 { return p.ack[f] })
		if len(xs) == 0 {
			continue
		}
		m.set(batch+f, percentile(xs, 0.5), len(xs))
		if layer == "client" {
			m.set("client.flush_p99_us."+f, percentile(xs, 0.99), len(xs))
		}
	}
	for _, c := range allClasses {
		xs := pool(func(p *passData) []float64 { return p.qry[c] })
		if len(xs) == 0 {
			continue
		}
		m.set(layer+".query_p50_us."+c, percentile(xs, 0.5), len(xs))
		m.set(layer+".query_p99_us."+c, percentile(xs, 0.99), len(xs))
	}
	if xs := pool(func(p *passData) []float64 { return p.backlog }); len(xs) > 0 {
		m.set("core.backlog_p50_items", median(xs), len(xs))
	}
	if xs := pool(func(p *passData) []float64 { return p.stale }); len(xs) > 0 {
		m.set("core.stale_p50_items", median(xs), len(xs))
		worst := 0.0
		for _, i := range keep {
			worst = math.Max(worst, passes[i].staleMaxFrac)
		}
		m.set("core.stale_max_frac", worst, len(xs))
	}
	late := pool(func(p *passData) []float64 { return p.genLate })
	var over, ops int64
	for _, i := range keep {
		over += passes[i].overLimit
		ops += passes[i].opsN
	}
	// Closed-loop workloads have no schedule to be late against: zero.
	m.set("harness.gen_late_p99_us", 0, 0)
	m.set("harness.late_frac", 0, 0)
	if len(late) > 0 {
		m.set("harness.gen_late_p99_us", percentile(late, 0.99), len(late))
		m.set("harness.late_frac", float64(over)/float64(ops), int(ops))
	}
	return m
}

// traceOverhead is the share of ingest throughput lost on the passes that
// recorded spans, against the passes of the same run that did not.
func traceOverhead(passes []passData, traced []bool) float64 {
	var on, off []float64
	for i := range passes {
		if traced[i] {
			on = append(on, passes[i].ingestMitemsS())
		} else {
			off = append(off, passes[i].ingestMitemsS())
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 1 - median(on)/median(off)
}
