package main

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/core"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/ops"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/server"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// The layer ledger pushes one identical key stream, on one writer lane,
// through each layer of the stack in turn — hash, sequential sketch, core
// framework, sharded sketch at S=1 and S=4, registry handle, wire codec,
// loopback server — and measures one query per class on the filled
// sketches, so that the cost a layer adds is a subtraction between two
// rows measured the same way. Every figure includes the layers below it.
//
// A figure is the time per key over the second half of the stream; the
// first half is the layer's warm-up. A fresh Θ sketch pays a fixed quarter
// of a second before its pre-filter bites (core.Framework spent 0.19 to
// 0.39 s on the whole stream whether that was 2^17 or 2^22 keys long), so a
// whole-stream average is that constant divided by the stream's length at
// any length a run has time for; the second half of 2^20 keys gives the
// 60 to 85 ns a key that every doubling beyond 2^18 keys adds (README.md).
const (
	ledgerBlock      = 1024
	ledgerItems      = 1 << 20 // keys of the ledger's stream, the second half of them timed
	ledgerQueryReps  = 200
	ledgerSmallBatch = 64
	ledgerRung       = 8 * time.Second // length of each rung of the rate ladder
)

type ledger struct {
	cfg  config
	tl   *tally
	n    int
	rc   fastsketches.RegistryConfig
	seed uint64
	m    metricSet
}

var ledgerSink uint64

// addLedger runs the ledger and overlays its metrics under the workload's
// own: a layer the workload exercised keeps the workload's figure, every
// other per-layer metric takes the ledger's.
func addLedger(res *runResult) error {
	tl := &tally{}
	lg := &ledger{cfg: res.cfg, tl: tl, n: ledgerItems, m: metricSet{}}
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{})
	if err != nil {
		return err
	}
	lg.rc = reg.Config()
	reg.Close()
	lg.seed = lg.rc.Seed
	if lg.seed == 0 {
		lg.seed = murmur.DefaultSeed
	}
	t0 := time.Now()
	steps := []func() error{lg.hashAndSequential, lg.coreLayer, lg.shardLayer, lg.registryLayer,
		lg.wireLayer, lg.serverLayer, lg.ladder}
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	lg.print(time.Since(t0))
	own := res.metrics
	res.metrics = lg.m
	res.metrics.overlay(own)
	res.attempted += tl.attempted.Load()
	res.failed += tl.failed.Load()
	res.failures = append(res.failures, tl.msgs...)
	return nil
}

// timed is the number of keys of an n-key stream that are timed: the
// second half.
func timed(n int) int { return n - n/2 }

// stream generates the ledger's key stream block by block and returns the
// time spent inside f per key over the second half of the stream, in ns;
// the first half warms the layer up and generation is never timed. after,
// if not nil, runs once at the end and is timed too (a drain belongs to the
// cost of ingesting).
func (lg *ledger) stream(n int, f func(keys []uint64), after func()) float64 {
	return lg.streamPrepared(n, nil, f, after)
}

// streamPrepared is stream with an untimed step before each timed call.
func (lg *ledger) streamPrepared(n int, prepare, f func(keys []uint64), after func()) float64 {
	rng := laneStream(lg.cfg.seed, 0)
	keys := make([]uint64, ledgerBlock)
	var busy time.Duration
	for done := 0; done < n; done += ledgerBlock {
		rng.fill(keys)
		if prepare != nil {
			prepare(keys)
		}
		t0 := time.Now()
		f(keys)
		if done >= n/2 {
			busy += time.Since(t0)
		}
	}
	if after != nil {
		t0 := time.Now()
		after()
		busy += time.Since(t0)
	}
	return float64(busy.Nanoseconds()) / float64(timed(n))
}

// timeUS returns the median duration of reps calls of f, in µs; prepare, if
// not nil, runs untimed before each call.
func timeUS(reps int, prepare, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(xs)
}

// Conversions from the generated key to each family's framework item: Θ and
// HLL hash at the boundary, Quantiles takes the key mapped to [0,1).
func (lg *ledger) thetaItems(keys, dst []uint64) []uint64 {
	for i, k := range keys {
		dst[i] = theta.HashKey(k, lg.seed)
	}
	return dst
}

func (lg *ledger) hllItems(keys, dst []uint64) []uint64 {
	for i, k := range keys {
		dst[i] = murmur.HashUint64(k, lg.seed)
	}
	return dst
}

func unitItems(keys []uint64, dst []float64) []float64 {
	for i, k := range keys {
		dst[i] = unit(k)
	}
	return dst
}

func rawItems(keys, dst []uint64) []uint64 { return dst[:copy(dst, keys)] }

func (lg *ledger) hashAndSequential() error {
	lg.m.set("murmur.hash_ns_item", lg.stream(lg.n, func(keys []uint64) {
		for _, k := range keys {
			ledgerSink ^= murmur.HashUint64(k, lg.seed)
		}
	}, nil), timed(lg.n))
	qs := theta.NewQuickSelect(lg.rc.ThetaLgK, lg.seed)
	lg.m.set("theta.seq_ns_item", lg.stream(lg.n, func(keys []uint64) {
		for _, k := range keys {
			qs.Update(k)
		}
	}, nil), timed(lg.n))
	h := hll.New(lg.rc.HLLPrecision, lg.seed)
	lg.m.set("hll.seq_ns_item", lg.stream(lg.n, func(keys []uint64) {
		for _, k := range keys {
			h.Update(k)
		}
	}, nil), timed(lg.n))
	q := quantiles.New(lg.rc.QuantilesK, quantiles.NewRandomBits(int64(lg.seed)))
	lg.m.set("quantiles.seq_ns_item", lg.stream(lg.n, func(keys []uint64) {
		for _, k := range keys {
			q.Update(unit(k))
		}
	}, nil), timed(lg.n))
	cm := countmin.NewWithError(lg.rc.CountMinEpsilon, lg.rc.CountMinDelta, lg.seed)
	lg.m.set("countmin.seq_ns_item", lg.stream(lg.n, func(keys []uint64) {
		for _, k := range keys {
			cm.Update(k)
		}
	}, nil), timed(lg.n))
	lg.tl.checkExact("ledger sequential countmin N", cm.N(), uint64(lg.n))
	lg.tl.checkExact("ledger sequential quantiles N", q.N(), uint64(lg.n))
	return nil
}

// coreRun pushes the stream through one core.Framework (one writer lane,
// the buffer size the sharded layer would give the family) and drains it.
func coreRun[T any](lg *ledger, g core.Global[T], k, buffer int, conv func(keys []uint64, dst []T) []T) (float64, core.Stats) {
	fw := core.New[T](g, core.Config{Workers: 1, BufferSize: buffer, MaxError: lg.rc.MaxError, K: k})
	fw.Start()
	dst := make([]T, ledgerBlock)
	ns := lg.stream(lg.n, func(keys []uint64) { fw.UpdateBatch(0, conv(keys, dst)) }, fw.Close)
	return ns, fw.Stats()
}

func (lg *ledger) coreLayer() error {
	tc := theta.NewComposable(lg.rc.ThetaLgK, lg.seed)
	tc.EnableSnapshots()
	ns, st := coreRun(lg, tc, 1<<lg.rc.ThetaLgK, 0, lg.thetaItems)
	lg.m.set("core.ingest_ns_item.theta", ns, timed(lg.n))
	lg.m.set("core.filter_ratio.theta", float64(st.Filtered)/float64(st.Filtered+st.Accepted), lg.n)
	tacc := theta.NewUnion(lg.rc.ThetaLgK, lg.seed)
	lg.m.set("theta.fold_us", timeUS(ledgerQueryReps, tacc.Reset, func() { tc.SnapshotMergeInto(tacc) }), ledgerQueryReps)

	hc := hll.NewComposable(lg.rc.HLLPrecision, lg.seed)
	hc.EnableSnapshots()
	ns, _ = coreRun(lg, hc, 1<<lg.rc.HLLPrecision, 0, lg.hllItems)
	lg.m.set("core.ingest_ns_item.hll", ns, timed(lg.n))
	hacc := hll.New(lg.rc.HLLPrecision, lg.seed)
	lg.m.set("hll.fold_us", timeUS(ledgerQueryReps, hacc.Reset, func() { hc.SnapshotMergeInto(hacc) }), ledgerQueryReps)

	qc := quantiles.NewComposable(lg.rc.QuantilesK, quantiles.NewRandomBits(int64(lg.seed)))
	ns, _ = coreRun(lg, qc, lg.rc.QuantilesK, 64, unitItems)
	lg.m.set("core.ingest_ns_item.quantiles", ns, timed(lg.n))
	qacc := quantiles.NewAccumulator()
	lg.m.set("quantiles.fold_us", timeUS(ledgerQueryReps, qacc.Reset, func() { qc.SnapshotMergeInto(qacc) }), ledgerQueryReps)
	lg.tl.checkExact("ledger core quantiles N", qc.N(), uint64(lg.n))

	proto := countmin.NewWithError(lg.rc.CountMinEpsilon, lg.rc.CountMinDelta, lg.seed)
	cc := countmin.NewComposable(proto.Width(), proto.Depth(), lg.seed)
	ns, _ = coreRun(lg, cc, proto.Width(), 32, rawItems)
	lg.m.set("core.ingest_ns_item.countmin", ns, timed(lg.n))
	lg.m.set("countmin.fold_us", timeUS(ledgerQueryReps, proto.Reset, func() { cc.SnapshotMergeInto(proto) }), ledgerQueryReps)
	lg.tl.checkExact("ledger core countmin N", cc.N(), uint64(lg.n))
	return nil
}

// closable is a sharded sketch as the ledger drives it.
type closable[T, A any] interface {
	fastsketches.Sketch[T, A]
	Close()
}

// shardRun pushes the stream through a sharded sketch, measures the merged
// query on the filled sketch and drains it. during, if not nil, runs
// between the two for the measurements only one family has.
func shardRun[T, A any, S closable[T, A]](lg *ledger, sk S, conv func(keys []uint64, dst []T) []T,
	read func(A), during func()) (ingestNS, queryUS float64) {
	dst := make([]T, ledgerBlock)
	ingestNS = lg.stream(lg.n, func(keys []uint64) { sk.UpdateBatch(0, conv(keys, dst)) }, nil)
	acc := sk.NewAccumulator()
	queryUS = timeUS(ledgerQueryReps, nil, func() { sk.QueryInto(acc); read(acc) })
	if during != nil {
		during()
	}
	t0 := time.Now()
	sk.Close()
	ingestNS += float64(time.Since(t0).Nanoseconds()) / float64(timed(lg.n))
	return ingestNS, queryUS
}

func (lg *ledger) shardLayer() error {
	for _, shards := range []int{1, libShards} {
		cfg := shard.Config{Shards: shards, Writers: 1}
		tag := fmt.Sprintf("S%d", shards)
		record := func(f string, ingestNS, queryUS float64) {
			lg.m.set("shard.ingest_ns_item."+f+"."+tag, ingestNS, timed(lg.n))
			if shards == libShards {
				lg.m.set("shard.query_us."+f+"."+tag, queryUS, ledgerQueryReps)
			}
		}
		ts, err := shard.NewTheta(lg.rc.ThetaLgK, cfg)
		if err != nil {
			return err
		}
		var during func()
		if shards == libShards {
			during = func() { lg.thetaPlanes(ts) }
		}
		ns, us := shardRun(lg, ts, rawItems, func(a *theta.Union) { ledgerSink ^= uint64(a.Estimate()) }, during)
		record("theta", ns, us)
		hs, err := shard.NewHLL(lg.rc.HLLPrecision, cfg)
		if err != nil {
			return err
		}
		ns, us = shardRun(lg, hs, rawItems, func(a *hll.Sketch) { ledgerSink ^= uint64(a.Estimate()) }, nil)
		record("hll", ns, us)
		qs, err := shard.NewQuantiles(lg.rc.QuantilesK, cfg)
		if err != nil {
			return err
		}
		ns, us = shardRun(lg, qs, unitItems, func(a *quantiles.Accumulator) { ledgerSink ^= uint64(a.Quantile(0.5) * 1e6) }, nil)
		record("quantiles", ns, us)
		cs, err := shard.NewCountMin(lg.rc.CountMinEpsilon, lg.rc.CountMinDelta, cfg)
		if err != nil {
			return err
		}
		ns, us = shardRun(lg, cs, rawItems, func(a *countmin.Sketch) { ledgerSink ^= a.N() }, nil)
		record("countmin", ns, us)
	}
	return nil
}

// thetaPlanes measures, on the filled S=4 Θ sketch, the materialised
// planes: the view (query and one refresh), the window (query and one
// rotation, with fresh items between rotations so that a rotation has an
// interval to close) and a live resize down and back.
func (lg *ledger) thetaPlanes(ts *shard.Theta) {
	acc := ts.NewAccumulator()
	err := ts.EnableView(shard.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1})
	lg.tl.check(err == nil, "ledger: enable view: %v", err)
	lg.m.set("shard.view_refresh_us", timeUS(50, nil, func() { ts.RefreshViewNow() }), 50)
	lg.m.set("shard.view_query_us.theta", timeUS(ledgerQueryReps, nil, func() { ts.QueryInto(acc); ledgerSink ^= uint64(acc.Estimate()) }), ledgerQueryReps)
	ts.DisableView()

	err = ts.EnableWindow(shard.WindowConfig{Interval: time.Hour, Slots: dashSlots})
	lg.tl.check(err == nil, "ledger: enable window: %v", err)
	rng := laneStream(lg.cfg.seed, 1)
	keys := make([]uint64, ledgerBlock)
	const rotations = 2 * dashSlots
	lg.m.set("shard.rotate_us", timeUS(rotations, func() {
		for b := 0; b < 16; b++ {
			rng.fill(keys)
			ts.UpdateBatch(0, keys)
		}
	}, func() { ts.RotateNow() }), rotations)
	lg.m.set("shard.window_query_us.theta", timeUS(ledgerQueryReps, nil, func() {
		ok := ts.WindowQueryInto(acc)
		ledgerSink ^= uint64(acc.Estimate())
		if !ok {
			lg.tl.fail("ledger: window query on a windowed sketch returned false")
		}
	}), ledgerQueryReps)
	ts.DisableWindow()

	var resizes []float64
	for _, s := range []int{libShards / 2, libShards, libShards / 2, libShards} {
		t0 := time.Now()
		err := ts.Resize(s)
		resizes = append(resizes, float64(time.Since(t0).Nanoseconds())/1e6)
		lg.tl.check(err == nil, "ledger: resize to %d: %v", s, err)
	}
	lg.m.set("shard.resize_ms", median(resizes), len(resizes))
}

// registryLayer pushes the stream through the typed handles of a registry
// shaped like lib_mixed's (S=4, one lane, plus the dashboard Θ tenant), with
// the staleness prober running beside the Count-Min ingest, then measures
// every query class, a checkpoint and its restore, and open/drop.
func (lg *ledger) registryLayer() error {
	l := newLib(lg.cfg, lg.tl, libMixed)
	if err := l.setup(); err != nil {
		return err
	}
	defer l.teardown()
	t, err := l.open(nil, libNames(nil))
	if err != nil {
		return err
	}
	keys := make([]uint64, ledgerBlock)
	vals := make([]float64, ledgerBlock)
	ingestNS := map[string]float64{} // per family; the drain is added when the tenant is dropped
	run := func(f string, update func(src []uint64)) {
		var batch []float64
		ingestNS[f] = lg.stream(lg.n, func(src []uint64) {
			t0 := time.Now()
			update(src)
			batch = append(batch, float64(time.Since(t0).Nanoseconds())/1e3)
		}, nil)
		lg.m.set("registry.batch_p50_us."+f, median(batch), len(batch))
	}
	run("theta", func(src []uint64) { t.theta.UpdateBatch(0, rawItems(src, keys)) })
	run("hll", func(src []uint64) { t.hll.UpdateBatch(0, rawItems(src, keys)) })
	run("quantiles", func(src []uint64) { t.quant.UpdateBatch(0, unitItems(src, vals)) })

	var pd passData
	var completed atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { defer close(done); probeStaleness(stop, t.cm, l.pacc.cm, &completed, lg.tl, &pd) }()
	run("countmin", func(src []uint64) {
		t.cm.UpdateBatch(0, rawItems(src, keys))
		completed.Add(int64(len(src)))
	})
	close(stop)
	<-done
	lg.m.overlay(layerMetrics("registry", []passData{pd}, []int{0}))
	lg.stream(lg.n/4, func(src []uint64) { t.dash.UpdateBatch(0, rawItems(src, keys)) }, nil)

	qry := map[string][]float64{}
	for _, class := range allClasses {
		for i := 0; i < ledgerQueryReps; i++ {
			t0 := time.Now()
			v, ok := libQuery(class, t, &l.qacc)
			qry[class] = append(qry[class], float64(time.Since(t0).Nanoseconds())/1e3)
			lg.tl.check(ok && v >= 0, "ledger: registry query %s: ok=%v value=%v", class, ok, v)
		}
	}
	lg.m.overlay(layerMetrics("registry", []passData{{qry: qry}}, []int{0}))

	var buf bytes.Buffer
	lg.m.set("snapshot.checkpoint_ms", timeUS(5, buf.Reset, func() {
		err := l.reg.Checkpoint(&buf)
		lg.tl.check(err == nil, "ledger: checkpoint: %v", err)
	})/1e3, 5)
	lg.m.set("snapshot.checkpoint_bytes", float64(buf.Len()), 1)
	var restored *fastsketches.Registry
	lg.m.set("snapshot.restore_ms", timeUS(3, func() {
		if restored != nil {
			restored.Close()
		}
		restored, err = fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: libShards})
	}, func() {
		if err == nil {
			err = restored.Restore(bytes.NewReader(buf.Bytes()))
		}
	})/1e3, 3)
	if err != nil {
		return err
	}
	restored.Close()
	for i, drop := range []func() bool{t.theta.Drop, t.hll.Drop, t.quant.Drop, t.cm.Drop} {
		t0 := time.Now()
		drop()
		drain := float64(time.Since(t0).Nanoseconds()) / float64(timed(lg.n))
		lg.m.set("registry.ingest_ns_item."+families[i], ingestNS[families[i]]+drain, timed(lg.n))
	}

	var opens, drops []float64
	for i := 0; i < 8; i++ {
		for fi := range families {
			name := fmt.Sprintf("ledger-open%d", i)
			t0 := time.Now()
			var drop func() bool
			switch fi {
			case famTheta:
				h, e := l.reg.OpenTheta(name, fastsketches.Spec{})
				err, drop = e, h.Drop
			case famHLL:
				h, e := l.reg.OpenHLL(name, fastsketches.Spec{})
				err, drop = e, h.Drop
			case famQuantiles:
				h, e := l.reg.OpenQuantiles(name, fastsketches.Spec{})
				err, drop = e, h.Drop
			case famCountMin:
				h, e := l.reg.OpenCountMin(name, fastsketches.Spec{})
				err, drop = e, h.Drop
			}
			if err != nil {
				return err
			}
			t1 := time.Now()
			drop()
			opens = append(opens, float64(t1.Sub(t0).Nanoseconds())/1e3)
			drops = append(drops, float64(time.Since(t1).Nanoseconds())/1e3)
		}
	}
	lg.m.set("registry.open_us", median(opens), len(opens))
	lg.m.set("registry.drop_us", median(drops), len(drops))
	return nil
}

func (lg *ledger) wireLayer() error {
	var frame []byte
	var id uint32
	lg.m.set("wire.encode_ns_item", lg.stream(lg.n, func(keys []uint64) {
		id++
		frame = wire.AppendBatch(frame[:0], id, wire.FamilyTheta, "ledger.wire", keys)
	}, nil), timed(lg.n))
	var perr error
	lg.m.set("wire.decode_ns_item", lg.streamPrepared(lg.n, func(keys []uint64) {
		frame = wire.AppendBatch(frame[:0], id, wire.FamilyTheta, "ledger.wire", keys)
	}, func([]uint64) {
		req, err := wire.ParseRequest(frame[4:]) // past the length prefix
		if err != nil {
			perr = err
			return
		}
		for i := 0; i < req.NumItems(); i++ {
			ledgerSink ^= req.Item(i)
		}
	}, nil), timed(lg.n))
	return perr
}

// serverLayer serves a registry in-process on loopback, with the ingest
// observer and the metrics listener sketchd would attach, and drives it
// through the client library from one goroutine over one connection: the
// stream in 1024-key flushes and a sixteenth of it in 64-key flushes per
// family, then every query class.
func (lg *ledger) serverLayer() error {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: servedShards, Writers: 1})
	if err != nil {
		return err
	}
	defer reg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(reg)
	obs := &ops.IngestObserver{}
	srv.SetIngestObserver(obs.ObserveChunk)
	ms, err := ops.ListenMetrics("127.0.0.1:0", &ops.Collector{Reg: reg, Ingest: obs})
	if err != nil {
		ln.Close()
		return err
	}
	defer ms.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() { srv.Shutdown(); <-serveErr }()
	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1, BatchSize: 2 * ledgerBlock})
	if err != nil {
		return err
	}
	defer cl.Close()
	s := &served{cfg: lg.cfg, tl: lg.tl, cl: cl, maddr: ms.Addr(), epoch: time.Now(), extra: metricSet{}}
	names := servedNames(nil)

	first, err := s.scrape(nil, names)
	if err != nil {
		return err
	}
	start := time.Now()
	out := &workerOut{qry: map[string][]float64{}}
	for fi, f := range families {
		for _, size := range []int{ledgerBlock, ledgerSmallBatch} {
			n := lg.n
			if size == ledgerSmallBatch {
				n /= 16
			}
			b := cl.NewBatch(wireFamilies[fi], fmt.Sprintf("ledger.%s.b%d", f, size))
			o := out
			if size == ledgerSmallBatch {
				o = &workerOut{} // only the 1024-key flushes feed client.flush_*
			}
			ns := lg.stream(n, func(keys []uint64) {
				for at := 0; at < len(keys); at += size {
					s.sendBatch(b, fi, keys[at:at+size], unit, nil, names, -1, -1, 0, o)
				}
			}, nil)
			lg.m.set(fmt.Sprintf("server.ingest_ns_item.%s.b%d", f, size), ns, timed(n))
		}
	}
	wall := time.Since(start)
	scrapeMS := timeUS(5, nil, func() {
		_, err := s.scrape(nil, names)
		lg.tl.check(err == nil, "ledger: scrape: %v", err)
	}) / 1e3
	last, err := s.scrape(nil, names)
	if err != nil {
		return err
	}
	chunks := last.chunkItems.sub(first.chunkItems)
	lg.m.set("ops.scrape_ms", scrapeMS, 5)
	lg.m.set("ops.resident_bytes", last.residentBytes, 1)
	lg.m.set("server.lane_batch_items_p50", chunks.quantile(0.5), int(chunks.count))
	lg.m.set("server.lane_busy_frac", (last.chunkSeconds.sum-first.chunkSeconds.sum)/wall.Seconds(), int(chunks.count))

	// The dashboard tenant: a quarter of the stream, a view and a window.
	const dash = "ledger.dashboard"
	db := cl.NewBatch(client.Theta, dash)
	lg.stream(lg.n/4, func(keys []uint64) { s.sendBatch(db, famTheta, keys, unit, nil, names, -1, -1, 0, &workerOut{}) }, nil)
	if err := cl.EnableView(dash, dashRefresh, 0); err != nil {
		return err
	}
	if err := cl.EnableWindow(dash, time.Second, dashSlots, 0); err != nil {
		return err
	}
	for _, class := range allClasses {
		name := dash
		if i := slices.Index(liveClasses, class); i >= 0 {
			name = fmt.Sprintf("ledger.%s.b%d", families[i], ledgerBlock)
		}
		for i := 0; i < ledgerQueryReps; i++ {
			s.timedQuery(class, name, nil, names, -1, -1, 0, out)
		}
	}
	pd := passData{ack: map[string][]float64{}, qry: map[string][]float64{}}
	s.collect([]*workerOut{out}, &pd)
	lg.m.overlay(layerMetrics("client", []passData{pd}, []int{0}))
	lg.m.overlay(s.extra)
	return nil
}

// ladder offers served_open's traffic to a fresh daemon at half, once and
// twice its rate and records the batch completion time at each rung: the
// geometric mean over families of the median, from due time.
func (lg *ledger) ladder() error {
	s, err := newServed(lg.cfg, lg.tl, true)
	if err != nil {
		return err
	}
	if err := s.setup(); err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		mult float64
	}{{"r050", 0.5}, {"r100", 1}, {"r200", 2}} {
		s.passNo++
		pd := passData{ack: map[string][]float64{}, qry: map[string][]float64{}}
		outs, err := s.openPass(nil, servedNames(nil), &pd, r.mult, ledgerRung.Seconds())
		if err != nil {
			s.teardown()
			return err
		}
		s.collect(outs, &pd)
		n := 0
		for _, xs := range pd.ack {
			n += len(xs)
		}
		lg.m.set("server.ack_p50_us."+r.name, classGM(pd.ack), n)
	}
	return s.teardown()
}

// print writes the ledger as two tables: ns per item for each layer of the
// ingest path with the delta to the row above, and µs per query for each
// layer of the query path.
func (lg *ledger) print(took time.Duration) {
	v := func(name string) float64 { return lg.m[name].value }
	fmt.Printf("-- layer ledger: %d keys, the second half timed, one writer lane, %d-key blocks (%.1fs)\n", lg.n, ledgerBlock, took.Seconds())
	fmt.Printf("%-28s", "ingest ns/item (Δ to row above)")
	for _, f := range families {
		fmt.Printf(" %20s", f)
	}
	fmt.Println()
	rows := []struct{ label, format string }{
		{"murmur hash", "murmur.hash_ns_item"},
		{"sequential sketch", "%s.seq_ns_item"},
		{"core.Framework W=1", "core.ingest_ns_item.%s"},
		{"shard S=1", "shard.ingest_ns_item.%s.S1"},
		{"shard S=4", "shard.ingest_ns_item.%s.S4"},
		{"registry Handle S=4", "registry.ingest_ns_item.%s"},
		{"loopback server b1024", "server.ingest_ns_item.%s.b1024"},
		{"loopback server b64", "server.ingest_ns_item.%s.b64"},
	}
	prev := map[string]float64{}
	for i, r := range rows {
		fmt.Printf("%-28s", r.label)
		for _, f := range families {
			name := r.format
			if i > 0 {
				name = fmt.Sprintf(r.format, f)
			}
			x := v(name)
			base := prev[f]
			if r.label == "loopback server b64" { // both server rows sit on the registry row
				base = v(fmt.Sprintf("registry.ingest_ns_item.%s", f))
			}
			fmt.Printf(" %9.1f (%+8.1f)", x, x-base)
			prev[f] = x
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %9.1f encode, %.1f decode (one 1024-key batch frame)\n", "wire ns/item", v("wire.encode_ns_item"), v("wire.decode_ns_item"))
	fmt.Printf("%-28s %12s %12s %12s %12s\n", "query µs (median)", "fold 1 shard", "shard S=4", "registry", "client")
	for i, c := range allClasses {
		fold, sh := "-", "-"
		switch {
		case i < len(families):
			fold = fmt.Sprintf("%.1f", v(families[i]+".fold_us"))
			sh = fmt.Sprintf("%.1f", v("shard.query_us."+families[i]+".S4"))
		case c == "view_theta_est":
			sh = fmt.Sprintf("%.1f", v("shard.view_query_us.theta"))
		default:
			sh = fmt.Sprintf("%.1f", v("shard.window_query_us.theta"))
		}
		fmt.Printf("%-28s %12s %12s %12.1f %12.1f\n", c, fold, sh, v("registry.query_p50_us."+c), v("client.query_p50_us."+c))
	}
}
