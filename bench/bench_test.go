package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {1, 9}, {0.25, 3}, {0.9, 8.2}} {
		if got := percentile(xs, c.p); !near(got, c.want, 1e-9) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100, 10000}); !near(got, 100, 1e-9) {
		t.Errorf("geomean = %v, want 100", got)
	}
	// Every class weighs equally: scaling one class by k scales the mean
	// by k^(1/n) whatever the class's magnitude.
	a := geomean([]float64{2, 700})
	b := geomean([]float64{4, 700})
	c := geomean([]float64{2, 1400})
	if !near(b/a, math.Sqrt2, 1e-9) || !near(c/a, math.Sqrt2, 1e-9) {
		t.Errorf("geomean does not weigh classes equally: %v %v %v", a, b, c)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want, 1e-12) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4.0; !near(got, want, 1e-12) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestAAGapIsTwoSided(t *testing.T) {
	if got := worseBy(100, 130, "lower"); !near(got, 0.3, 1e-12) {
		t.Errorf("lower-is-better 100 -> 130: worse by %v, want 0.3", got)
	}
	if got := worseBy(100, 70, "higher"); !near(got, 0.3, 1e-12) {
		t.Errorf("higher-is-better 100 -> 70: worse by %v, want 0.3", got)
	}
	// Set B 30% better than set A is the same noise as 30% worse.
	if better := worseBy(100, 70, "lower"); !gapExceeds(better, 0.25) || !gapExceeds(-better, 0.25) || gapExceeds(better, 0.3) {
		t.Errorf("a gap of %v against bounds 0.25 and 0.3", better)
	}
	if gapExceeds(0, 0) {
		t.Error("identical medians exceed a zero bound")
	}
}

func TestSplitmixSeededAndDuplicateFree(t *testing.T) {
	a, b := laneStream(7, 0), laneStream(7, 0)
	other := laneStream(8, 0)
	lane1 := laneStream(7, 1)
	seen := map[uint64]bool{}
	differs := false
	for i := 0; i < 50_000; i++ {
		x := a.next()
		if x != b.next() {
			t.Fatal("same seed and lane gave different streams")
		}
		if x != other.next() {
			differs = true
		}
		y := lane1.next()
		if seen[x] || seen[y] || x == y {
			t.Fatalf("duplicate key at draw %d", i)
		}
		seen[x], seen[y] = true, true
	}
	if !differs {
		t.Error("different seeds gave the same stream")
	}
	if u := unit(math.MaxUint64); u >= 1 || unit(0) != 0 {
		t.Errorf("unit out of [0,1): %v", u)
	}
}

func TestZipf(t *testing.T) {
	z := newZipf(16, 1.0)
	rng := splitmix{s: 1}
	const n = 200_000
	counts := make([]int, 16)
	for i := 0; i < n; i++ {
		r := z.rank(rng.next())
		if r < 0 || r >= 16 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	var h float64
	for k := 1; k <= 16; k++ {
		h += 1 / float64(k)
	}
	for k, c := range counts {
		want := 1 / float64(k+1) / h
		if got := float64(c) / n; !near(got, want, 0.01) {
			t.Errorf("rank %d drawn with share %.4f, want %.4f", k, got, want)
		}
	}
	// Same bits, same rank; the extremes stay in range.
	if z.rank(12345) != z.rank(12345) || z.rank(0) != 0 || z.rank(math.MaxUint64) != 15 {
		t.Error("zipf rank is not a pure function of its bits or leaves its range")
	}
	// A steeper exponent concentrates more mass on the first rank.
	if newZipf(16, 1.1).cdf[0] <= z.cdf[0] {
		t.Error("zipf(1.1) should put more mass on rank 0 than zipf(1.0)")
	}
}

func TestDueTimeSchedule(t *testing.T) {
	if got := dueAt(0, 1000); got != 0 {
		t.Errorf("first operation due at %v, want 0", got)
	}
	if got := dueAt(1500, 1000); got != 1500*time.Millisecond {
		t.Errorf("operation 1500 at 1000/s due at %v, want 1.5s", got)
	}
	prev := time.Duration(-1)
	for i := int64(0); i < 10_000; i++ {
		d := dueAt(i, 3000)
		if d <= prev {
			t.Fatalf("schedule not strictly increasing at %d", i)
		}
		prev = d
	}
	// Operation inputs depend on (seed, stream, index) only.
	a, b := opRand(1, 1, 42), opRand(1, 1, 42)
	if a.next() != b.next() {
		t.Error("opRand is not deterministic")
	}
	c, d := opRand(1, 2, 42), opRand(2, 1, 42)
	e := opRand(1, 1, 43)
	x := opRand(1, 1, 42)
	v := x.next()
	if v == c.next() || v == d.next() || v == e.next() {
		t.Error("opRand streams collide across stream, seed or index")
	}
}

func TestUndisturbedSelection(t *testing.T) {
	same := func(got []int, want ...int) bool { return slices.Equal(got, want) }
	// Nine passes; the spin between passes 3 and 4 ran 20% slow, so both
	// are disturbed and seven survive.
	keep, frac := undisturbed([]float64{50, 50.5, 51, 50, 60, 50, 52, 50, 50.2, 50})
	if !same(keep, 0, 1, 2, 5, 6, 7, 8) || !near(frac, 2.0/9, 1e-12) {
		t.Errorf("keep = %v frac = %v, want seven passes and 2/9", keep, frac)
	}
	// Exactly 8% over the fastest is still undisturbed.
	if keep, _ := undisturbed([]float64{50, 54, 50, 50, 50, 50}); len(keep) != 5 {
		t.Errorf("a spin at the limit disturbed its passes: %v", keep)
	}
	// The limit follows the run's fastest spin, wherever it sits.
	if keep, _ := undisturbed([]float64{49.5, 49.5, 49.5, 49.5, 49.5, 49.5, 55, 46}); !same(keep, 0, 1, 2, 3, 4) {
		t.Errorf("keep = %v, want passes 0..4 (limit 49.68 ms)", keep)
	}
	// Fewer than five undisturbed passes: all passes are used, and the
	// share still says how many were disturbed.
	keep, frac = undisturbed([]float64{50, 70, 50, 70, 50, 56, 50, 50, 50, 50})
	if !same(keep, 0, 1, 2, 3, 4, 5, 6, 7, 8) || !near(frac, 6.0/9, 1e-12) {
		t.Errorf("keep = %v frac = %v, want all nine passes and 6/9", keep, frac)
	}
	if keep, frac := undisturbed([]float64{50}); keep != nil || frac != 0 {
		t.Errorf("no pass: keep = %v frac = %v", keep, frac)
	}
}

func TestTallyCountsBrokenChecks(t *testing.T) {
	tl := &tally{}
	tl.ok(10)
	tl.checkExact("countmin N", 100, 100)
	tl.checkWithin("live N", 90, 100, 16)
	tl.checkDistinct("theta", 1000, 1010, 0.0156)
	tl.checkMedian("quantiles", 0.51, 128, 1_000_000)
	if tl.failed.Load() != 0 || tl.attempted.Load() != 14 {
		t.Fatalf("clean checks: attempted %d failed %d", tl.attempted.Load(), tl.failed.Load())
	}
	tl.checkExact("countmin N", 100, 101) // a wrong expected N()
	tl.checkWithin("live N", 80, 100, 16)
	tl.checkWithin("live N ahead", 101, 100, 16)
	tl.checkDistinct("theta", 1000, 1200, 0.0156)
	tl.checkMedian("quantiles", 0.9, 128, 1_000_000)
	if tl.failed.Load() != 5 || tl.attempted.Load() != 19 || len(tl.msgs) != 5 {
		t.Fatalf("broken checks: attempted %d failed %d msgs %d", tl.attempted.Load(), tl.failed.Load(), len(tl.msgs))
	}
}

func TestSchemaMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(perLayer) != 103 { // the issue's 102 and harness.ref_walk_ms
		t.Errorf("%d per-layer metrics, want the issue's 102 and harness.ref_walk_ms", len(perLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}

func TestContractLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := &runResult{workload: "lib_ingest", cfg: config{trace: trace}, metrics: metricSet{}, attempted: 7, failed: 0}
		for _, d := range r.schema() {
			r.metrics.set(d.name, 1.25, 3)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(r.contractJSON(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var parsed contractLine
		if err := json.Unmarshal(r.contractJSON(), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted != 7 || parsed.Failed != 0 || len(parsed.Metrics) != len(r.schema()) {
			t.Errorf("trace=%v: parsed %+v", trace, parsed)
		}
		for _, d := range r.schema() {
			if m, ok := parsed.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value != 1.25 {
				t.Errorf("trace=%v: metric %s = %+v", trace, d.name, m)
			}
		}
		r.failed = 1
		if err := json.Unmarshal(r.contractJSON(), &parsed); err != nil || parsed.Correct {
			t.Errorf("a failed operation must report correct=false (err %v)", err)
		}
	}
}

func TestSpanSelfTimeAndFile(t *testing.T) {
	var nilTracer *tracer
	if b := nilTracer.buffer(); b != nil || b.open(0, -1, 0, 0) != -1 {
		t.Fatal("the untraced run must record nothing")
	}
	tr := newTracer()
	b := tr.buffer()
	op, flush := tr.id("harness.op"), tr.id("client.Flush")
	root := b.open(op, -1, 1, 1000)
	b.add(flush, root, 1, 2000, 5000)
	b.add(flush, root, 1, 6000, 7000)
	b.close(root, 9000)
	tr.readCounters(map[string]float64{"backlog": 3})
	lt := tr.selfTimes()
	if got := lt["harness.op"]; got.Count != 1 || !near(got.TotalUS, 8, 1e-9) || !near(got.SelfUS, 4, 1e-9) {
		t.Errorf("harness.op = %+v, want total 8us self 4us", got)
	}
	if got := lt["client.Flush"]; got.Count != 2 || !near(got.SelfUS, 4, 1e-9) {
		t.Errorf("client.Flush = %+v, want two spans, 4us", got)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path, "lib_ingest", 9); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Names []string
		Spans [][5]int64
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) != 3 || f.Spans[1][3] != 0 || f.Spans[0][3] != -1 || f.Names[f.Spans[1][0]] != "client.Flush" {
		t.Errorf("trace file spans = %v names = %v", f.Spans, f.Names)
	}
}

func TestParseMetricsAndHistogram(t *testing.T) {
	const first = `# HELP fastsketches_sketch_resident_bytes x
fastsketches_sketch_resident_bytes{family="theta",name="a"} 1000
fastsketches_sketch_resident_bytes{family="hll",name="b"} 24
fastsketches_sketch_backlog{family="theta",name="a"} 5
fastsketches_ingest_chunk_items_bucket{le="63"} 0
fastsketches_ingest_chunk_items_bucket{le="127"} 10
fastsketches_ingest_chunk_items_bucket{le="+Inf"} 10
fastsketches_ingest_chunk_items_sum 640
fastsketches_ingest_chunk_items_count 10
fastsketches_ingest_chunk_duration_seconds_sum 0.5
fastsketches_ingest_chunk_duration_seconds_count 10
`
	const second = `fastsketches_ingest_chunk_items_bucket{le="63"} 0
fastsketches_ingest_chunk_items_bucket{le="127"} 10
fastsketches_ingest_chunk_items_bucket{le="255"} 30
fastsketches_ingest_chunk_items_bucket{le="+Inf"} 30
fastsketches_ingest_chunk_items_sum 5760
fastsketches_ingest_chunk_items_count 30
fastsketches_ingest_chunk_duration_seconds_sum 2
`
	a, b := parseMetrics(first), parseMetrics(second)
	if a.residentBytes != 1024 || a.backlog != 5 || a.chunkItems.count != 10 || a.chunkSeconds.sum != 0.5 {
		t.Errorf("first scrape parsed as %+v", a)
	}
	if got := a.chunkItems.quantile(0.5); !near(got, 95, 1e-9) {
		t.Errorf("median of ten chunks in (63,127] = %v, want 95", got)
	}
	d := b.chunkItems.sub(a.chunkItems)
	if d.count != 20 || d.cum[1] != 0 || d.cum[2] != 20 {
		t.Errorf("delta histogram = %+v", d)
	}
	if got := d.quantile(0.5); !near(got, 191, 1e-9) {
		t.Errorf("median of the twenty new chunks in (127,255] = %v, want 191", got)
	}
	if got := b.chunkSeconds.sum - a.chunkSeconds.sum; got != 1.5 {
		t.Errorf("busy seconds between scrapes = %v", got)
	}
}

func TestEndToEndIsMedianOverKeptPasses(t *testing.T) {
	mk := func(items int64, wall, cpu time.Duration, q, a float64) passData {
		return passData{items: items, wall: wall, cpu: cpu, rssMB: float64(items) / 1e6,
			qry: map[string][]float64{"x": {q, q, q}, "y": {100 * q}},
			ack: map[string][]float64{"theta": {a}, "hll": {4 * a}}}
	}
	passes := []passData{
		mk(2e6, time.Second, 2*time.Second, 10, 5),
		mk(4e6, time.Second, 2*time.Second, 20, 6),
		mk(100e6, time.Second, time.Second, 999, 999), // disturbed: not kept
		mk(6e6, time.Second, 3*time.Second, 30, 7),
	}
	m := endToEndMetrics(passes, []int{0, 1, 3}, 1, false)
	if got := m["ingest_mitems_s"]; got.value != 4 || got.n != 3 {
		t.Errorf("ingest = %+v, want median 4 over 3 passes", got)
	}
	if got := m["cpu_us_item"].value; !near(got, 0.5, 1e-12) {
		t.Errorf("cpu = %v, want 0.5", got)
	}
	if got := m["query_p50_gm_us"].value; !near(got, 200, 1e-9) { // gm(20, 2000)
		t.Errorf("query gm = %v, want 200", got)
	}
	if got := m["ack_p50_gm_us"].value; !near(got, 12, 1e-9) { // gm(6, 24)
		t.Errorf("ack gm = %v, want 12", got)
	}
	if got := m["peak_rss_mb"].value; got != 4 {
		t.Errorf("peak rss = %v, want 4", got)
	}
	if got := traceOverhead(passes[:2], []bool{true, false}); !near(got, 0.5, 1e-12) {
		t.Errorf("trace overhead = %v, want 0.5", got)
	}
}

// A run measured on a machine running at 80% of the nominal speed reports
// what the nominal machine would have measured: durations shrink, the
// closed-loop rate grows, the open loop's rate and peak RSS stay.
func TestScalingToTheNominalMachine(t *testing.T) {
	slow := walkNominalMS / 0.8
	speed := machineSpeed([]float64{slow, slow / 2, slow, 3 * slow, slow})
	if !near(speed, 0.8, 1e-12) {
		t.Fatalf("speed = %v, want 0.8 (the median walk decides)", speed)
	}
	p := passData{items: 1e6, wall: time.Second, cpu: time.Second, rssMB: 20,
		qry: map[string][]float64{"x": {100}}, ack: map[string][]float64{"theta": {50}}}
	closed := endToEndMetrics([]passData{p}, []int{0}, speed, false)
	open := endToEndMetrics([]passData{p}, []int{0}, speed, true)
	for name, want := range map[string]float64{"ingest_mitems_s": 1.25, "cpu_us_item": 0.8, "query_p50_gm_us": 80, "ack_p50_gm_us": 40, "peak_rss_mb": 20} {
		if got := closed[name].value; !near(got, want, 1e-9) {
			t.Errorf("closed loop %s = %v, want %v", name, got, want)
		}
		if name == "ingest_mitems_s" {
			want = 1
		}
		if got := open[name].value; !near(got, want, 1e-9) {
			t.Errorf("open loop %s = %v, want %v", name, got, want)
		}
	}
}

func TestReferenceWalkLeavesNoResidentTable(t *testing.T) {
	ref, err := newReferee()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	a, b := ref.take(), ref.take()
	if a.walkMS <= 0 || a.spinMS <= 0 || b.walkMS <= 0 {
		t.Fatalf("references %+v %+v", a, b)
	}
	resetPeakRSS(0)
	rss, err := peakRSSMB(0)
	if err != nil {
		t.Fatal(err)
	}
	if rss > walkBytes>>20 {
		t.Errorf("peak RSS right after a walk is %.0f MB: the %d MB table stayed resident", rss, walkBytes>>20)
	}
}

// A probe whose completed counter runs a known number of items ahead of an
// exactly drained Count-Min tenant must report that number, pass while it is
// within Relaxation() and fail beyond it.
func TestStalenessProbeReportsKnownLag(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: libShards, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h, err := reg.OpenCountMin("probe", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 4096
	keys := make([]uint64, sent)
	rng := laneStream(1, 0)
	rng.fill(keys)
	h.UpdateBatch(0, keys)
	if err := h.Resize(libShards / 2); err != nil { // a live resize drains every buffer exactly
		t.Fatal(err)
	}
	bound := steadyRelaxation(h.Relaxation)
	if bound <= 0 {
		t.Fatalf("Relaxation() = %d", bound)
	}
	for _, lag := range []int64{0, 100, bound, bound + 1} {
		var completed atomic.Int64
		completed.Store(sent + lag)
		tl := &tally{}
		var pd passData
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); probeStaleness(stop, h, h.NewAccumulator(), &completed, tl, &pd) }()
		time.Sleep(5 * probeEvery)
		close(stop)
		<-done
		if len(pd.stale) == 0 {
			t.Fatalf("lag %d: no probe in %v", lag, 5*probeEvery)
		}
		for _, miss := range pd.stale {
			if miss != float64(lag) {
				t.Fatalf("lag %d: a probe reported %v missed items", lag, miss)
			}
		}
		if want := float64(lag) / float64(bound); pd.staleMaxFrac != want {
			t.Errorf("lag %d: stale_max_frac = %v, want %v", lag, pd.staleMaxFrac, want)
		}
		wantFailed := int64(0)
		if lag > bound {
			wantFailed = int64(len(pd.stale))
		}
		if got := tl.failed.Load(); got != wantFailed || tl.attempted.Load() != int64(len(pd.stale)) {
			t.Errorf("lag %d (bound %d): %d of %d probes failed, want %d of %d", lag, bound, got, tl.attempted.Load(), wantFailed, len(pd.stale))
		}
	}
}
