package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastsketches"
	"fastsketches/client"
)

// Shapes of the two served workloads. The closed-loop block rate is, like
// the library workloads', a constant measured once on the reference box; the
// open-loop rates are the offered load itself.
const (
	servedShards    = 4
	servedWriters   = 2
	servedConns     = 2
	ingestClients   = 2    // closed-loop goroutines of served_ingest
	ingestBlock     = 1024 // keys per flush
	ingestBlocksSec = 100  // blocks per goroutine per nominal second
	queryEveryBlock = 8    // one query per live class every this many blocks

	openBatchRate  = 1000.0 // batches per second
	openBatchItems = 64
	openQueryRate  = 200.0 // queries per second
	openWorkers    = 16
	openKeySpace   = 1 << 20
	openKeySkew    = 1.1
	openTenantSkew = 1.0
	openLimit      = 5 * time.Millisecond // an operation later than this missed
	scrapeEvery    = time.Second
	checkpointFile = "ck.fsnp"
	stopTimeout    = 20 * time.Second
)

var wireFamilies = [...]client.Family{client.Theta, client.HLL, client.Quantiles, client.CountMin}

// openTenant is one of served_open's sixteen long-lived tenants, with the
// ground truth the harness keeps about what it sent there.
type openTenant struct {
	fam      int // index into families
	name     string
	windowed bool
	sent     atomic.Int64
	// distinct keys sent (Θ and HLL tenants): one bit per key of the space.
	mu   sync.Mutex
	seen []uint64
}

// served is served_ingest (closed loop) or served_open (open loop): a
// sketchd built from the commit under test, driven over loopback through
// the client library.
type served struct {
	cfg    config
	tl     *tally
	open   bool
	bin    string
	dir    string // scratch directory inside the checkout (checkpoint file)
	epoch  time.Time
	passNo int64

	cmd         *exec.Cmd
	exited      chan error
	addr, maddr string
	cl          *client.Client
	acc         accuracy

	// served_open state
	tenants    []*openTenant
	byClass    map[string][]*openTenant
	tenantZipf *zipf
	keyZipf    *zipf
	extra      metricSet
}

// ensureSketchd builds cmd/sketchd of the checkout the benchmark runs in,
// once per process. Building is not part of setup_s.
func ensureSketchd(root string) (string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(abs, ".bench_build", "sketchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sketchd")
	cmd.Dir = abs
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sketchd: %v\n%s", err, out)
	}
	return bin, nil
}

func newServed(cfg config, tl *tally, open bool) (*served, error) {
	bin, err := ensureSketchd(cfg.root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(filepath.Dir(bin), fmt.Sprintf("run-%d", os.Getpid()))
	s := &served{cfg: cfg, tl: tl, open: open, bin: bin, dir: dir, epoch: time.Now(), extra: metricSet{}}
	if open {
		s.tenantZipf = newZipf(4*len(families), openTenantSkew)
		s.keyZipf = newZipf(openKeySpace, openKeySkew)
	}
	return s, nil
}

func (s *served) layer() string     { return "client" }
func (s *served) extras() metricSet { return s.extra }
func (s *served) clockBound() bool  { return s.open }
func (s *served) now() int64        { return int64(time.Since(s.epoch)) }

// setup starts the daemon, waits for its listeners, dials and — for the
// open loop — creates the sixteen tenants. A set-up that fails half way
// leaves no daemon behind.
func (s *served) setup() error {
	err := s.start()
	if err != nil {
		s.stop()
	}
	return err
}

func (s *served) start() error {
	args := []string{"-addr", "127.0.0.1:0", "-shards", fmt.Sprint(servedShards), "-writers", fmt.Sprint(servedWriters)}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if s.open {
		args = append(args, "-metrics-addr", "127.0.0.1:0",
			"-checkpoint", filepath.Join(s.dir, checkpointFile), "-checkpoint-every", "5s")
	}
	s.cmd = exec.Command(s.bin, args...)
	// Should the benchmark itself be killed, the daemon must not outlive it.
	// (The signal follows the thread that forked the daemon, not the process:
	// every goroutine of the harness that locks its thread unlocks it before
	// it returns, so no thread of this process exits before the process.)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		return err
	}
	addrs := make(chan [2]string, 1)
	logDone := make(chan struct{})
	go scanDaemonLog(stderr, s.open, addrs, logDone)
	s.exited = make(chan error, 1)
	go func() {
		<-logDone // Wait closes the pipe; let the scanner finish first
		s.exited <- s.cmd.Wait()
	}()
	select {
	case a := <-addrs:
		s.addr, s.maddr = a[0], a[1]
	case err := <-s.exited:
		s.cmd = nil
		return fmt.Errorf("sketchd exited during start: %v", err)
	case <-time.After(stopTimeout):
		return errors.New("sketchd did not report its listen address")
	}
	batch := 2 * ingestBlock // above the flush size: every Flush is explicit
	if s.open {
		batch = 2 * openBatchItems
	}
	s.cl, err = client.Dial(s.addr, client.Options{Conns: servedConns, BatchSize: batch})
	if err != nil {
		return err
	}
	// The daemon runs with the library's default accuracy parameters.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{})
	if err != nil {
		return err
	}
	rc := reg.Config()
	reg.Close()
	s.acc = accuracy{thetaK: 1 << rc.ThetaLgK, hllP: rc.HLLPrecision, quantilesK: rc.QuantilesK}
	if s.open {
		return s.createOpenTenants()
	}
	return nil
}

// scanDaemonLog reads the daemon's log to the end, reporting the listen
// addresses once both (or, without metrics, the one) have been printed.
func scanDaemonLog(r io.Reader, wantMetrics bool, addrs chan<- [2]string, done chan<- struct{}) {
	defer close(done)
	var a [2]string
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "sketchd: serving on "); ok {
			a[0], _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, "sketchd: metrics on http://"); ok {
			a[1] = strings.TrimSuffix(rest, "/metrics")
		}
		if !sent && a[0] != "" && (a[1] != "" || !wantMetrics) {
			addrs <- a
			sent = true
		}
	}
}

// createOpenTenants creates served_open's tenants: four per family; two of
// the Θ tenants are dashboards (materialised view refreshed every 20 ms and
// a 1 s × 8 sliding window), two stay plain so that theta_est keeps meaning
// the live S-shard fold.
func (s *served) createOpenTenants() error {
	s.tenants = nil
	s.byClass = map[string][]*openTenant{}
	for fi, f := range families {
		for i := 0; i < 4; i++ {
			t := &openTenant{fam: fi, name: fmt.Sprintf("%s%d", f, i)}
			if fi == famTheta || fi == famHLL {
				t.seen = make([]uint64, openKeySpace/64)
			}
			if err := s.cl.Create(wireFamilies[fi], t.name); err != nil {
				return err
			}
			class := liveClasses[fi]
			if fi == famTheta && i < 2 {
				if err := s.cl.EnableView(t.name, dashRefresh, 0); err != nil {
					return err
				}
				if err := s.cl.EnableWindow(t.name, time.Second, dashSlots, 0); err != nil {
					return err
				}
				t.windowed = true
				s.byClass["view_theta_est"] = append(s.byClass["view_theta_est"], t)
				s.byClass["window_theta_est"] = append(s.byClass["window_theta_est"], t)
			} else {
				s.byClass[class] = append(s.byClass[class], t)
			}
			s.tenants = append(s.tenants, t)
		}
	}
	// Pre-fill every tenant with one batch, so that no query meets an empty
	// sketch however rarely the tenant skew picks it.
	keys := make([]uint64, openBatchItems)
	out := &workerOut{}
	for i, t := range s.tenants {
		rng := opRand(s.cfg.seed, 0, int64(i))
		for k := range keys {
			keys[k] = uint64(s.keyZipf.rank(rng.next()))
		}
		s.sendBatch(s.cl.NewBatch(wireFamilies[t.fam], t.name), t.fam, keys, rankValue, nil, servedNames(nil), -1, -1, s.now(), out)
		if len(out.ack[t.fam]) == 0 {
			return fmt.Errorf("pre-fill of %s was not acked", t.name)
		}
		out.ack[t.fam] = out.ack[t.fam][:0]
		t.record(keys)
	}
	return nil
}

// stop closes the client, asks the daemon to terminate and waits for it.
// A daemon that ignores SIGTERM is killed; either way it is gone on return.
func (s *served) stop() error {
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
	if s.cmd == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(stopTimeout):
		s.cmd.Process.Kill()
		<-s.exited
		err = errors.New("no exit within the stop timeout after SIGTERM; killed")
	}
	s.cmd = nil
	return err
}

func (s *served) teardown() error {
	if s.open && s.cl != nil {
		t0 := time.Now()
		err := s.cl.Checkpoint()
		s.tl.check(err == nil, "checkpoint on demand: %v", err)
		s.extra.set("snapshot.checkpoint_ms", float64(time.Since(t0).Nanoseconds())/1e6, 1)
	}
	err := s.stop()
	s.tl.check(err == nil, "sketchd exit after SIGTERM: %v", err)
	if s.open {
		s.checkRestore()
	}
	return os.RemoveAll(s.dir)
}

// checkRestore restores the daemon's final checkpoint into an in-process
// registry and checks it against what the harness sent: exact totals for
// Count-Min and Quantiles, distinct counts within tolerance for Θ and HLL.
func (s *served) checkRestore() {
	path := filepath.Join(s.dir, checkpointFile)
	if st, err := os.Stat(path); err == nil {
		s.extra.set("snapshot.checkpoint_bytes", float64(st.Size()), 1)
	}
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: servedShards, Writers: servedWriters})
	if err != nil {
		s.tl.fail("restore registry: %v", err)
		return
	}
	defer reg.Close()
	t0 := time.Now()
	err = reg.RestoreFile(path)
	s.extra.set("snapshot.restore_ms", float64(time.Since(t0).Nanoseconds())/1e6, 1)
	if err != nil {
		s.tl.fail("restore final checkpoint: %v", err)
		return
	}
	for _, t := range s.tenants {
		sent := uint64(t.sent.Load())
		if _, ok := reg.Info(families[t.fam], t.name); !ok {
			s.tl.fail("restored checkpoint lacks %s/%s", families[t.fam], t.name)
			continue
		}
		what := "restored " + t.name
		switch t.fam {
		case famTheta:
			// A restored windowed sketch answers cumulative queries
			// from its base plane only (the ring's closed slots are
			// left out), so the whole-stream estimate of the dashboards
			// is checked live, in openAfterPass, and not here.
			if t.windowed {
				continue
			}
			h, _ := reg.OpenTheta(t.name, fastsketches.Spec{})
			s.tl.checkDistinct(what, h.Sketch().Estimate(), t.distinct(), s.acc.thetaRSE())
		case famHLL:
			h, _ := reg.OpenHLL(t.name, fastsketches.Spec{})
			s.tl.checkDistinct(what, h.Sketch().Estimate(), t.distinct(), s.acc.hllRSE())
		case famQuantiles:
			h, _ := reg.OpenQuantiles(t.name, fastsketches.Spec{})
			s.tl.checkExact(what+" N", h.Sketch().N(), sent)
		case famCountMin:
			h, _ := reg.OpenCountMin(t.name, fastsketches.Spec{})
			if s.cfg.breakCheck {
				sent++
			}
			s.tl.checkExact(what+" N", h.Sketch().N(), sent)
		}
	}
}

func (t *openTenant) distinct() float64 {
	n := 0
	for _, w := range t.seen {
		n += bits.OnesCount64(w)
	}
	return float64(n)
}

// servedSpanNames are the interned span names of the served workloads.
type servedSpanNames struct {
	op, add, scrape uint16
	flush           [4]uint16
	query           map[string]uint16
}

func servedNames(tr *tracer) *servedSpanNames {
	n := &servedSpanNames{op: tr.id("harness.op"), add: tr.id("client.Add"), scrape: tr.id("ops.scrape"),
		query: map[string]uint16{}}
	for i, f := range families {
		n.flush[i] = tr.id("client.Flush." + f)
	}
	for _, c := range allClasses {
		n.query[c] = tr.id("client.Query." + c)
	}
	return n
}

// query sends one query of the class for the named tenant.
func (s *served) query(class, name string) (float64, error) {
	switch class {
	case "theta_est", "view_theta_est":
		return s.cl.ThetaEstimate(name)
	case "window_theta_est":
		return s.cl.ThetaWindowEstimate(name)
	case "hll_est":
		return s.cl.HLLEstimate(name)
	case "quantile":
		return s.cl.Quantile(name, 0.5)
	default: // cm_count
		n, err := s.cl.CountMinN(name)
		return float64(n), err
	}
}

// workerOut is what one load-generating goroutine measured in a pass.
type workerOut struct {
	ack     [4][]float64
	qry     map[string][]float64
	addNS   int64 // time inside the Batch.Add loops
	added   int64 // keys handed to Batch.Add
	acked   int64 // keys of acked batches
	over    int64
	ops     int64
	genLate []float64
}

func (s *served) pass(tr *tracer) (passData, error) {
	s.passNo++
	pid := s.cmd.Process.Pid
	names := servedNames(tr)
	pd := passData{ack: map[string][]float64{}, qry: map[string][]float64{}}
	var outs []*workerOut
	var err error
	resetPeakRSS(pid)
	cpu0, err := pidCPU(pid)
	if err != nil {
		return pd, err
	}
	start := time.Now()
	if s.open {
		outs, err = s.openPass(tr, names, &pd, 1, s.cfg.passSeconds())
	} else {
		outs, err = s.ingestPass(tr, names)
	}
	if err != nil {
		return pd, err
	}
	pd.wall = time.Since(start)
	cpu1, err := pidCPU(pid)
	if err != nil {
		return pd, err
	}
	pd.cpu = cpu1 - cpu0
	if pd.rssMB, err = peakRSSMB(pid); err != nil {
		return pd, err
	}
	s.collect(outs, &pd)
	if s.open {
		err = s.openAfterPass(&pd)
	} else {
		err = s.ingestAfterPass(&pd)
	}
	return pd, err
}

// collect folds what the load generators measured into the pass.
func (s *served) collect(outs []*workerOut, pd *passData) {
	var addNS, added int64
	for _, o := range outs {
		for i, f := range families {
			pd.ack[f] = append(pd.ack[f], o.ack[i]...)
		}
		pd.items += o.acked
		for c, xs := range o.qry {
			pd.qry[c] = append(pd.qry[c], xs...)
		}
		pd.genLate = append(pd.genLate, o.genLate...)
		pd.overLimit += o.over
		pd.opsN += o.ops
		addNS += o.addNS
		added += o.added
	}
	if added > 0 {
		s.extra.set("client.add_ns_item", float64(addNS)/float64(added), int(added))
	}
}

// --- served_ingest: closed loop ---

func (s *served) ingestBlocks() int {
	return int(math.Round(ingestBlocksSec * s.cfg.passSeconds()))
}

func (s *served) ingestName(fi int) string {
	return fmt.Sprintf("pass%d.%s", s.passNo, families[fi])
}

// ingestPass runs the closed loop: each goroutine sends its lane's key
// stream, block by block, to one tenant per family and waits for every ack;
// every queryEveryBlock blocks it asks one query per live class.
func (s *served) ingestPass(tr *tracer, names *servedSpanNames) ([]*workerOut, error) {
	for fi := range families {
		if err := s.cl.Create(wireFamilies[fi], s.ingestName(fi)); err != nil {
			return nil, err
		}
	}
	blocks := s.ingestBlocks()
	outs := make([]*workerOut, ingestClients)
	var wg sync.WaitGroup
	for g := 0; g < ingestClients; g++ {
		out := &workerOut{qry: map[string][]float64{}}
		outs[g] = out
		sb := tr.buffer()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := laneStream(s.cfg.seed, g)
			src := make([]uint64, ingestBlock)
			var batches [4]*client.Batch
			for fi := range families {
				batches[fi] = s.cl.NewBatch(wireFamilies[fi], s.ingestName(fi))
			}
			for b := 0; b < blocks; b++ {
				op := int32(g*blocks + b)
				blk := sb.open(names.op, -1, op, s.now())
				rng.fill(src)
				for fi := range families {
					s.sendBatch(batches[fi], fi, src, unit, sb, names, blk, op, 0, out)
				}
				if b%queryEveryBlock == queryEveryBlock-1 {
					for fi, class := range liveClasses {
						s.timedQuery(class, s.ingestName(fi), sb, names, blk, op, 0, out)
					}
				}
				sb.close(blk, s.now())
			}
		}()
	}
	wg.Wait()
	return outs, nil
}

// sendBatch adds the keys to the batch (a Quantiles tenant gets value(key)),
// flushes and waits for the ack. The completion time runs from due when the
// operation had a due time (open loop), else from the moment Flush was
// called.
func (s *served) sendBatch(b *client.Batch, fam int, keys []uint64, value func(uint64) float64,
	sb *spanBuf, names *servedSpanNames, parent, op int32, due int64, out *workerOut) {
	t0 := s.now()
	var err error
	for _, k := range keys {
		if fam == famQuantiles {
			err = b.AddFloat(value(k))
		} else {
			err = b.Add(k)
		}
		if err != nil {
			break
		}
	}
	t1 := s.now()
	if err == nil {
		err = b.Flush()
	}
	t2 := s.now()
	out.addNS += t1 - t0
	out.added += int64(len(keys))
	sb.add(names.add, parent, op, t0, t1)
	sb.add(names.flush[fam], parent, op, t1, t2)
	from := t1
	if due != 0 {
		from = due
	}
	s.finish(err, t2-from, due != 0, out, "flush "+families[fam])
	if err != nil {
		b.Reset()
		return
	}
	out.ack[fam] = append(out.ack[fam], float64(t2-from)/1e3)
	out.acked += int64(len(keys))
}

func (s *served) timedQuery(class, name string, sb *spanBuf, names *servedSpanNames,
	parent, op int32, due int64, out *workerOut) {
	t0 := s.now()
	v, err := s.query(class, name)
	t1 := s.now()
	sb.add(names.query[class], parent, op, t0, t1)
	from := t0
	if due != 0 {
		from = due
	}
	if err == nil && (v < 0 || math.IsNaN(v)) {
		err = fmt.Errorf("value %v", v)
	}
	s.finish(err, t1-from, due != 0, out, "query "+class)
	if err == nil {
		out.qry[class] = append(out.qry[class], float64(t1-from)/1e3)
	}
}

// finish counts one operation; in the open loop an operation that failed or
// took longer than the limit from its due time missed.
func (s *served) finish(err error, lat int64, open bool, out *workerOut, what string) {
	s.tl.check(err == nil, "%s: %v", what, err)
	if open {
		out.ops++
		if err != nil || lat > int64(openLimit) {
			out.over++
		}
	}
}

// ingestAfterPass reads the tenants' bounds, drains them exactly with a
// live resize (the old shards are closed and folded into the legacy state),
// checks every total and estimate, and drops them.
func (s *served) ingestAfterPass(pd *passData) error {
	perTenant := uint64(ingestClients * s.ingestBlocks() * ingestBlock)
	for fi := range families {
		name := s.ingestName(fi)
		pd.relaxation += s.steadyRelaxation(wireFamilies[fi], name)
		if err := s.cl.Resize(wireFamilies[fi], name, servedShards/2); err != nil {
			return err
		}
		v, err := s.query(liveClasses[fi], name)
		s.tl.check(err == nil, "query after drain: %v", err)
		what := "drained " + name
		truth := float64(perTenant)
		switch fi {
		case famTheta:
			s.tl.checkDistinct(what, v, truth, s.acc.thetaRSE())
		case famHLL:
			s.tl.checkDistinct(what, v, truth, s.acc.hllRSE())
		case famQuantiles:
			s.tl.checkMedian(what, v, s.acc.quantilesK, perTenant)
			n, err := s.cl.QuantilesN(name)
			s.tl.check(err == nil, "QuantilesN: %v", err)
			s.tl.checkExact(what+" N", n, perTenant)
		case famCountMin:
			want := perTenant
			if s.cfg.breakCheck {
				want++
			}
			s.tl.checkExact(what+" N", uint64(v), want)
		}
		err = s.cl.Drop(wireFamilies[fi], name)
		s.tl.check(err == nil, "drop %s: %v", name, err)
	}
	return nil
}

// steadyRelaxation is the steady-state bound of a served tenant.
func (s *served) steadyRelaxation(fam client.Family, name string) int64 {
	return steadyRelaxation(func() int {
		info, err := s.cl.Info(fam, name)
		s.tl.check(err == nil, "info %s: %v", name, err)
		return int(info.Relaxation)
	})
}

// --- served_open: open loop ---

// openOp is one scheduled operation: batch or query number i of the run,
// due at the given time (ns since the epoch of the run).
type openOp struct {
	query bool
	i     int64
	due   int64
}

// openPass offers the fixed-interval schedule for dur seconds at mult times
// the workload's rates. Operation i of either stream belongs to worker
// i mod 16; every worker sleeps, on a thread of its own, until its next
// operation is due and then performs it, so the generator has no queue of
// its own: a worker still busy when its next operation falls due starts
// that one late, which the latency from due time and
// harness.gen_late_p99_us both show. A scraper reads /metrics once a second
// beside the traffic.
func (s *served) openPass(tr *tracer, names *servedSpanNames, pd *passData, mult, dur float64) ([]*workerOut, error) {
	batchRate, queryRate := openBatchRate*mult, openQueryRate*mult
	nb, nq := int64(batchRate*dur), int64(queryRate*dur)
	outs := make([]*workerOut, openWorkers)
	for w := range outs {
		outs[w] = &workerOut{qry: map[string][]float64{}}
	}
	stopScrape := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	ssb := tr.buffer()
	first, err := s.scrape(ssb, names)
	if err != nil {
		return nil, err
	}
	var scrapeMS []float64
	go func() {
		defer scrapes.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				t0 := time.Now()
				_, err := s.scrape(ssb, names)
				s.tl.check(err == nil, "scrape /metrics: %v", err)
				scrapeMS = append(scrapeMS, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
	}()

	start := s.now()
	base := s.passNo << 32 // operation numbers never repeat across passes
	var wg sync.WaitGroup
	for w, out := range outs {
		sb := tr.buffer()
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			batches := map[*openTenant]*client.Batch{}
			keys := make([]uint64, openBatchItems)
			bi, qi := int64(w), int64(w)
			for bi < nb || qi < nq {
				op := openOp{i: base + bi, due: start + int64(dueAt(bi, batchRate))}
				if qd := start + int64(dueAt(qi, queryRate)); bi >= nb || (qi < nq && qd < op.due) {
					op = openOp{query: true, i: base + qi, due: qd}
					qi += openWorkers
				} else {
					bi += openWorkers
				}
				for d := op.due - s.now(); d > 0; d = op.due - s.now() {
					sleepPrecise(time.Duration(d))
				}
				out.genLate = append(out.genLate, float64(s.now()-op.due)/1e3)
				s.openOperation(op, batches, keys, sb, names, out)
			}
		}()
	}
	wg.Wait()
	wall := time.Duration(s.now() - start)
	close(stopScrape)
	scrapes.Wait()
	last, err := s.scrape(ssb, names)
	if err != nil {
		return nil, err
	}
	if len(scrapeMS) > 0 {
		s.extra.set("ops.scrape_ms", median(scrapeMS), len(scrapeMS))
	}
	chunks := last.chunkItems.sub(first.chunkItems)
	s.extra.set("ops.resident_bytes", last.residentBytes, 1)
	s.extra.set("server.lane_batch_items_p50", chunks.quantile(0.5), int(chunks.count))
	s.extra.set("server.lane_busy_frac", (last.chunkSeconds.sum-first.chunkSeconds.sum)/wall.Seconds(), int(chunks.count))
	pd.counters = map[string]float64{
		"metrics.backlog": last.backlog, "metrics.resident_bytes": last.residentBytes,
		"metrics.chunks": last.chunkItems.count,
	}
	return outs, nil
}

// scrape GETs /metrics and parses the series the benchmark reads.
func (s *served) scrape(sb *spanBuf, names *servedSpanNames) (scraped, error) {
	t0 := s.now()
	resp, err := http.Get("http://" + s.maddr + "/metrics")
	if err != nil {
		return scraped{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sb.add(names.scrape, -1, -1, t0, s.now())
	if err != nil {
		return scraped{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scraped{}, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(string(body)), nil
}

// openOperation performs one scheduled operation. What it sends depends on
// the seed and the operation's number only.
func (s *served) openOperation(op openOp, batches map[*openTenant]*client.Batch, keys []uint64,
	sb *spanBuf, names *servedSpanNames, out *workerOut) {
	span := sb.open(names.op, -1, int32(op.i), op.due)
	if op.query {
		rng := opRand(s.cfg.seed, 2, op.i)
		class := allClasses[op.i%int64(len(allClasses))]
		pool := s.byClass[class]
		t := pool[s.tenantZipf.rank(rng.next())%len(pool)]
		s.timedQuery(class, t.name, sb, names, span, int32(op.i), op.due, out)
	} else {
		rng := opRand(s.cfg.seed, 1, op.i)
		t := s.tenants[s.tenantZipf.rank(rng.next())]
		for i := range keys {
			keys[i] = uint64(s.keyZipf.rank(rng.next()))
		}
		b := batches[t]
		if b == nil {
			b = s.cl.NewBatch(wireFamilies[t.fam], t.name)
			batches[t] = b
		}
		acked := len(out.ack[t.fam])
		s.sendBatch(b, t.fam, keys, rankValue, sb, names, span, int32(op.i), op.due, out)
		if len(out.ack[t.fam]) > acked {
			t.record(keys)
		}
	}
	sb.close(span, s.now())
}

// rankValue is the value a Quantiles tenant of the open loop receives for a
// key: the key's Zipf rank scaled into [0,1).
func rankValue(k uint64) float64 { return float64(k) / openKeySpace }

// record adds an acked batch to the tenant's ground truth.
func (t *openTenant) record(keys []uint64) {
	t.sent.Add(int64(len(keys)))
	if t.seen == nil {
		return
	}
	t.mu.Lock()
	for _, k := range keys {
		t.seen[k/64] |= 1 << (k % 64)
	}
	t.mu.Unlock()
}

// openAfterPass reads every tenant's bound and checks the live totals: a
// served count may trail what was acked by at most the advertised bound.
func (s *served) openAfterPass(pd *passData) error {
	for _, t := range s.tenants {
		bound := uint64(s.steadyRelaxation(wireFamilies[t.fam], t.name))
		pd.relaxation += int64(bound)
		sent := uint64(t.sent.Load())
		switch t.fam {
		case famTheta, famHLL:
			// The bound is in items and the truth in distinct keys, of
			// which there are no more than items: widen by the bound.
			est, err := s.query(liveClasses[t.fam], t.name)
			s.tl.check(err == nil, "estimate %s: %v", t.name, err)
			rse := s.acc.thetaRSE()
			if t.fam == famHLL {
				rse = s.acc.hllRSE()
			}
			truth := t.distinct()
			s.tl.check(est <= truth*(1+rseTolerance*rse) && est >= (truth-float64(bound))*(1-rseTolerance*rse),
				"live %s: estimate %.0f, truth %.0f, bound %d", t.name, est, truth, bound)
		case famQuantiles:
			n, err := s.cl.QuantilesN(t.name)
			s.tl.check(err == nil, "QuantilesN: %v", err)
			s.tl.checkWithin("live "+t.name+" N", n, sent, bound)
		case famCountMin:
			n, err := s.cl.CountMinN(t.name)
			s.tl.check(err == nil, "CountMinN: %v", err)
			s.tl.checkWithin("live "+t.name+" N", n, sent, bound)
		}
	}
	return nil
}
