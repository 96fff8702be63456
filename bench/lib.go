package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
)

// libKind selects one of the two in-process workloads.
type libKind int

const (
	libIngest libKind = iota
	libMixed
)

// The library workloads' fixed shapes. blocksPerSecond sizes a pass from
// -seconds: it is the number of blocks one writer pushes through every
// tenant per nominal second, measured on the reference box at the commit
// that defined the benchmark, and a constant ever after so that a pass is
// the same work on every commit.
var libShapes = [...]struct {
	writers, block  int
	blocksPerSecond float64
	queriesPerSec   float64
	classes         []string
	fromDue         bool // time queries from their due time, not their start
}{
	libIngest: {writers: 2, block: 1024, blocksPerSecond: 125, queriesPerSec: 50, classes: liveClasses},
	libMixed:  {writers: 1, block: 256, blocksPerSecond: 100, queriesPerSec: 1000, classes: allClasses, fromDue: true},
}

const (
	probeEvery    = 10 * time.Millisecond
	dashShards    = 8
	dashRefresh   = 20 * time.Millisecond
	dashInterval  = 200 * time.Millisecond
	dashSlots     = 8
	libShards     = 4
	dashboardName = "dashboard"
)

// accs is one reader goroutine's reusable merge accumulators. Accumulator
// dimensions depend on the registry's family parameters only, so one set
// serves every tenant of every pass.
type accs struct {
	theta *theta.Union
	hll   *hll.Sketch
	quant *quantiles.Accumulator
	cm    *countmin.Sketch
}

// libTenants are the handles of one pass's tenants.
type libTenants struct {
	theta *fastsketches.ThetaHandle
	hll   *fastsketches.HLLHandle
	quant *fastsketches.QuantilesHandle
	cm    *fastsketches.CountMinHandle
	dash  *fastsketches.ThetaHandle // lib_mixed only
}

// lib is lib_ingest or lib_mixed: writers call Handle.UpdateBatch in a
// closed loop while a querier and a staleness prober read the same tenants.
type lib struct {
	cfg    config
	tl     *tally
	kind   libKind
	acc    accuracy
	reg    *fastsketches.Registry
	blocks int // per writer per pass
	passNo int
	epoch  time.Time
	qacc   accs // querier's accumulators
	pacc   accs // prober's and checker's
}

func newLib(cfg config, tl *tally, kind libKind) *lib {
	sh := libShapes[kind]
	return &lib{cfg: cfg, tl: tl, kind: kind, epoch: time.Now(),
		blocks: int(math.Round(sh.blocksPerSecond * cfg.passSeconds()))}
}

func (l *lib) layer() string     { return "registry" }
func (l *lib) extras() metricSet { return nil }
func (l *lib) clockBound() bool  { return false }

func (l *lib) now() int64 { return int64(time.Since(l.epoch)) }

func (l *lib) setup() error {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: libShards, Writers: libShapes[l.kind].writers,
	})
	if err != nil {
		return err
	}
	l.reg = reg
	rc := reg.Config()
	l.acc = accuracy{thetaK: 1 << rc.ThetaLgK, hllP: rc.HLLPrecision, quantilesK: rc.QuantilesK}
	l.qacc, l.pacc = accs{}, accs{}
	return nil
}

func (l *lib) teardown() error {
	l.reg.Close()
	return nil
}

// open creates one pass's tenants under fresh names.
func (l *lib) open(sb *spanBuf, names *libSpanNames) (*libTenants, error) {
	prefix := fmt.Sprintf("pass%d/", l.passNo)
	t := &libTenants{}
	var err error
	timed := func(f func() error) {
		if err != nil {
			return
		}
		s := l.now()
		err = f()
		sb.add(names.open, -1, -1, s, l.now())
	}
	timed(func() (e error) { t.theta, e = l.reg.OpenTheta(prefix+"theta", fastsketches.Spec{}); return })
	timed(func() (e error) { t.hll, e = l.reg.OpenHLL(prefix+"hll", fastsketches.Spec{}); return })
	timed(func() (e error) { t.quant, e = l.reg.OpenQuantiles(prefix+"quantiles", fastsketches.Spec{}); return })
	timed(func() (e error) { t.cm, e = l.reg.OpenCountMin(prefix+"countmin", fastsketches.Spec{}); return })
	if l.kind == libMixed {
		timed(func() (e error) {
			t.dash, e = l.reg.OpenTheta(prefix+dashboardName, fastsketches.Spec{
				Shards: dashShards,
				View:   &fastsketches.ViewConfig{RefreshEvery: dashRefresh},
				Window: &fastsketches.WindowConfig{Interval: dashInterval, Slots: dashSlots},
			})
			return
		})
	}
	if err != nil {
		return nil, err
	}
	if l.qacc.cm == nil {
		for _, a := range []*accs{&l.qacc, &l.pacc} {
			*a = accs{t.theta.NewAccumulator(), t.hll.NewAccumulator(), t.quant.NewAccumulator(), t.cm.NewAccumulator()}
		}
	}
	return t, nil
}

// libSpanNames are the interned span names of the library workloads.
type libSpanNames struct {
	block, open, drop uint16
	update            [5]uint16 // four families + dashboard
	query             map[string]uint16
}

func libNames(tr *tracer) *libSpanNames {
	n := &libSpanNames{
		block: tr.id("harness.block"),
		open:  tr.id("registry.Open"),
		drop:  tr.id("registry.Drop"),
		query: map[string]uint16{},
	}
	for i, f := range families {
		n.update[i] = tr.id("registry.UpdateBatch." + f)
	}
	n.update[4] = tr.id("registry.UpdateBatch." + dashboardName)
	for _, c := range allClasses {
		n.query[c] = tr.id("registry.Query." + c)
	}
	return n
}

// libQuery answers one query of the class through the zero-allocation
// QueryInto plane, the way the server does, and returns the scalar.
func libQuery(class string, t *libTenants, a *accs) (float64, bool) {
	switch class {
	case "theta_est":
		t.theta.QueryInto(a.theta)
		return a.theta.Estimate(), true
	case "hll_est":
		t.hll.QueryInto(a.hll)
		return a.hll.Estimate(), true
	case "quantile":
		t.quant.QueryInto(a.quant)
		return a.quant.Quantile(0.5), true
	case "cm_count":
		t.cm.QueryInto(a.cm)
		return float64(a.cm.N()), true
	case "view_theta_est":
		t.dash.QueryInto(a.theta)
		return a.theta.Estimate(), true
	default: // window_theta_est
		ok := t.dash.WindowQueryInto(a.theta)
		return a.theta.Estimate(), ok
	}
}

// writer pushes the lane's key stream, block by block, through every
// tenant. The block is generated once and copied per tenant because the
// hashing families consume their argument as scratch.
func (l *lib) writer(lane int, rng splitmix, blocks int, t *libTenants, sb *spanBuf, names *libSpanNames,
	ack [][]float64, completedCM *atomic.Int64) {
	sh := libShapes[l.kind]
	src := make([]uint64, sh.block)
	keys := make([]uint64, sh.block)
	vals := make([]float64, sh.block)
	for b := 0; b < blocks; b++ {
		op := int32(lane*blocks + b)
		blk := sb.open(names.block, -1, op, l.now())
		rng.fill(src)
		update := func(i int, f func()) {
			s := l.now()
			f()
			e := l.now()
			if i < len(families) {
				ack[i] = append(ack[i], float64(e-s)/1e3)
			}
			sb.add(names.update[i], blk, op, s, e)
		}
		copy(keys, src)
		update(0, func() { t.theta.UpdateBatch(lane, keys) })
		copy(keys, src)
		update(1, func() { t.hll.UpdateBatch(lane, keys) })
		for i, k := range src {
			vals[i] = unit(k)
		}
		update(2, func() { t.quant.UpdateBatch(lane, vals) })
		copy(keys, src)
		update(3, func() { t.cm.UpdateBatch(lane, keys) })
		completedCM.Add(int64(sh.block))
		if t.dash != nil {
			copy(keys, src)
			update(4, func() { t.dash.UpdateBatch(lane, keys) })
		}
		sb.close(blk, l.now())
	}
}

// querier issues the workload's query mix on a fixed schedule until stopped.
func (l *lib) querier(stop <-chan struct{}, t *libTenants, sb *spanBuf, names *libSpanNames, out map[string][]float64) {
	sh := libShapes[l.kind]
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := int64(0); ; i++ {
		due := start.Add(dueAt(i, sh.queriesPerSec))
		for d := time.Until(due); d > 0; d = time.Until(due) {
			sleepPrecise(d)
		}
		select {
		case <-stop:
			return
		default:
		}
		class := sh.classes[i%int64(len(sh.classes))]
		s := l.now()
		v, ok := libQuery(class, t, &l.qacc)
		e := l.now()
		l.tl.check(ok && v >= 0 && !math.IsNaN(v), "query %s: ok=%v value=%v", class, ok, v)
		from := s
		if sh.fromDue {
			from = int64(due.Sub(l.epoch))
		}
		out[class] = append(out[class], float64(e-from)/1e3)
		sb.add(names.query[class], -1, int32(i), s, e)
	}
}

// probeStaleness measures, every 10 ms until stopped, how many of the
// Count-Min tenant's completed updates a merged query does not yet reflect,
// and checks that against the advertised bound. The completed counter is
// read before the query, so every item it counts had returned from
// UpdateBatch before the query began.
func probeStaleness(stop <-chan struct{}, cm *fastsketches.CountMinHandle, acc *countmin.Sketch,
	completed *atomic.Int64, tl *tally, pd *passData) {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	bound := int64(cm.Relaxation())
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		done := completed.Load()
		cm.QueryInto(acc)
		miss := max(done-int64(acc.N()), 0)
		tl.check(miss <= bound, "staleness probe: query missed %d completed updates, bound %d", miss, bound)
		pd.stale = append(pd.stale, float64(miss))
		pd.staleMaxFrac = math.Max(pd.staleMaxFrac, float64(miss)/float64(bound))
		pd.backlog = append(pd.backlog, float64(cm.Pressure().Backlog()))
	}
}

func (l *lib) pass(tr *tracer) (passData, error) {
	l.passNo++
	sh := libShapes[l.kind]
	names := libNames(tr)
	main := tr.buffer()
	t, err := l.open(main, names)
	if err != nil {
		return passData{}, err
	}
	// Pre-fill every tenant with one block from a lane index no writer
	// uses, so that no query of the pass meets an empty sketch. The block
	// counts as completed: Count-Min N() includes it, and the staleness
	// probe compares N() with this counter.
	var completedCM atomic.Int64
	l.writer(0, laneStream(l.cfg.seed, sh.writers), 1, t, nil, names, make([][]float64, len(families)), &completedCM)
	pd := passData{ack: map[string][]float64{}, qry: map[string][]float64{}}
	acks := make([][][]float64, sh.writers)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(2)
	qsb := tr.buffer()
	go func() { defer readers.Done(); l.querier(stop, t, qsb, names, pd.qry) }()
	go func() { defer readers.Done(); probeStaleness(stop, t.cm, l.pacc.cm, &completedCM, l.tl, &pd) }()

	resetPeakRSS(0)
	start, cpu0 := time.Now(), selfCPU()
	for w := 0; w < sh.writers; w++ {
		acks[w] = make([][]float64, len(families))
		for i := range acks[w] {
			acks[w][i] = make([]float64, 0, l.blocks)
		}
		wsb := tr.buffer()
		writers.Add(1)
		go func() {
			defer writers.Done()
			l.writer(w, laneStream(l.cfg.seed, w), l.blocks, t, wsb, names, acks[w], &completedCM)
		}()
	}
	writers.Wait()
	pd.wall, pd.cpu = time.Since(start), selfCPU()-cpu0
	if pd.rssMB, err = peakRSSMB(0); err != nil {
		return pd, err
	}
	close(stop)
	readers.Wait()

	tenants := int64(len(families))
	if t.dash != nil {
		tenants++
	}
	perTenant := uint64(sh.writers * l.blocks * sh.block)
	pd.items = int64(perTenant) * tenants
	perTenant += uint64(sh.block)                 // the pre-fill block
	l.tl.ok(int64(sh.writers*l.blocks) * tenants) // every UpdateBatch call returned
	for w := range acks {
		for i, f := range families {
			pd.ack[f] = append(pd.ack[f], acks[w][i]...)
		}
	}
	pd.relaxation = steadyRelaxation(t.theta.Relaxation) + steadyRelaxation(t.hll.Relaxation) +
		steadyRelaxation(t.quant.Relaxation) + steadyRelaxation(t.cm.Relaxation)
	if t.dash != nil {
		pd.relaxation += steadyRelaxation(t.dash.Relaxation)
	}
	if tr != nil {
		p := t.cm.Pressure()
		pd.counters = map[string]float64{
			"countmin.ingested": float64(p.Ingested), "countmin.merged": float64(p.Merged),
			"theta.ingested": float64(t.theta.Pressure().Ingested),
			"relaxation":     float64(pd.relaxation),
		}
	}

	// Untimed: Drop drains every buffer exactly, and a retained handle
	// still answers from the drained state, so the checks below are exact.
	drop := func(d func() bool) {
		s := l.now()
		l.tl.check(d(), "drop: tenant already gone")
		main.add(names.drop, -1, -1, s, l.now())
	}
	drop(t.theta.Drop)
	drop(t.hll.Drop)
	drop(t.quant.Drop)
	drop(t.cm.Drop)
	truth := float64(perTenant)
	a := &l.pacc
	est, _ := libQuery("theta_est", t, a)
	l.tl.checkDistinct("theta estimate", est, truth, l.acc.thetaRSE())
	est, _ = libQuery("hll_est", t, a)
	l.tl.checkDistinct("hll estimate", est, truth, l.acc.hllRSE())
	q, _ := libQuery("quantile", t, a)
	l.tl.checkExact("quantiles N", a.quant.N(), perTenant)
	l.tl.checkMedian("quantiles", q, l.acc.quantilesK, perTenant)
	n, _ := libQuery("cm_count", t, a)
	want := perTenant
	if l.cfg.breakCheck {
		want++
	}
	l.tl.checkExact("countmin N", uint64(n), want)
	if t.dash != nil {
		drop(t.dash.Drop)
		est, _ = libQuery("view_theta_est", t, a)
		l.tl.checkDistinct("dashboard theta estimate", est, truth, l.acc.thetaRSE())
	}
	return pd, nil
}
