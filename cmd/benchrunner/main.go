// benchrunner regenerates every table and figure of "Fast Concurrent Data
// Sketches" (PPoPP 2020) as TSV on stdout, in the spirit of the paper's
// artifact (`python3 run_test.py TEST`):
//
//	benchrunner figure1         scalability: concurrent vs lock-based
//	benchrunner figure3         strong-adversary choice regions
//	benchrunner figure4         estimator distributions (seq vs weak adversary)
//	benchrunner figure5a        accuracy pitchfork, no eager (e=1.0)
//	benchrunner figure5b        accuracy pitchfork, eager (e=0.04)
//	benchrunner figure6a        write-only throughput sweep (loglog)
//	benchrunner figure6b        write-only throughput, large sizes only
//	benchrunner figure7         mixed read-write workload
//	benchrunner figure8         eager vs no-eager speedup
//	benchrunner table1          Θ error analysis under adversaries
//	benchrunner table2          performance/accuracy tradeoff vs k
//	benchrunner quantiles-error Section 6.2 ε_r validation
//	benchrunner sharded         shard-count sweep: throughput vs S·r staleness
//	benchrunner mergedquery     merged-query plane: ns/op + allocs/op per path
//	benchrunner reshard         live resharding: throughput timeline across epoch swaps
//	benchrunner autoscale       autoscaling controller: bursty load walks S up and back down
//	benchrunner server          network front-end: loopback batched-ingest throughput + query latency
//	benchrunner ingest          ingest hot path: server-path ns/item + batches/sec across batch sizes and lane counts, allocs pinned
//	benchrunner view            materialized merged views: O(1)-in-S query latency vs the live fold
//	benchrunner checkpoint      persistence plane: registry-wide checkpoint encode ns/op (zero-alloc pinned), size, warm-start restore cost
//	benchrunner baseline        the CI benchmark-baseline set (sharded, mergedquery, reshard, autoscale, server, ingest, view, window, checkpoint)
//	benchrunner all             everything above, in order
//
// Use -quick for a fast smoke run (small sweeps, few trials) and -full for
// paper-scale parameters (hours). The default sits in between and completes
// in minutes on a laptop.
//
// -json FILE additionally emits the run's scenario metrics as a
// machine-readable benchfmt artifact (ns/op, allocs/op, ops/sec per
// scenario) — the format the committed BENCH_baseline.json uses and
// cmd/benchdiff gates CI against.
//
// -cpuprofile FILE / -memprofile FILE capture pprof profiles of the run
// (CPU for the whole run; heap at the end, after a forced GC) — the
// artifacts the CI bench job uploads so a regression caught by benchdiff
// comes with the profile that explains it.
//
// -cpus N[,N...] runs the selected TEST once per listed GOMAXPROCS value
// (e.g. -cpus 1,4 for a single-core and a multi-core pass). Each pass's
// metrics are stamped with their cpus value, so the JSON artifact carries
// one row per (metric, cpus) pair and benchdiff gates each width
// independently — a contention regression that only shows up multi-core
// can't hide behind a healthy single-core number, and vice versa.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/adversary"
	"fastsketches/internal/autoscale"
	"fastsketches/internal/benchfmt"
	"fastsketches/internal/clock"
	"fastsketches/internal/harness"
	"fastsketches/internal/mergedbench"
	"fastsketches/internal/ops"
	"fastsketches/internal/server"
	"fastsketches/internal/shard"
	"fastsketches/internal/stats"
)

// scale bundles the sweep parameters for the three effort levels.
type scale struct {
	lgMaxU       int // top of the stream-size sweep (paper: 23 = 8M)
	ppo          int
	maxTrials    int
	minTrials    int
	accTrials    int
	advTrials    int
	mixedUniques int
	mixedTrials  int
	scalUniques  int
	scalTrials   int
	maxThreads   int
}

var (
	quickScale = scale{
		lgMaxU: 16, ppo: 1, maxTrials: 256, minTrials: 2, accTrials: 64,
		advTrials: 2000, mixedUniques: 1 << 18, mixedTrials: 2,
		scalUniques: 1 << 19, scalTrials: 2, maxThreads: 4,
	}
	defaultScale = scale{
		lgMaxU: 20, ppo: 2, maxTrials: 2048, minTrials: 4, accTrials: 256,
		advTrials: 20000, mixedUniques: 1 << 20, mixedTrials: 4,
		scalUniques: 1 << 21, scalTrials: 3, maxThreads: 8,
	}
	fullScale = scale{
		lgMaxU: 23, ppo: 4, maxTrials: 1 << 12, minTrials: 16, accTrials: 4096,
		advTrials: 200000, mixedUniques: 1 << 23, mixedTrials: 16,
		scalUniques: 1 << 23, scalTrials: 16, maxThreads: 32,
	}
)

// artifact collects the run's metrics when -json is given; scenarios feed
// it through record and main writes it out at the end.
var artifact *benchfmt.Report

// metricCpus is the GOMAXPROCS value of the current -cpus pass, stamped onto
// every recorded metric; 0 outside a sweep (single ambient pass).
var metricCpus int

func record(m benchfmt.Metric) {
	if artifact != nil {
		if m.Cpus == 0 {
			m.Cpus = metricCpus
		}
		artifact.Add(m)
	}
}

// parseCpus parses the -cpus flag value ("1,4") into GOMAXPROCS values.
func parseCpus(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cpus: %q is not a positive integer", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "fast smoke-run parameters")
	full := flag.Bool("full", false, "paper-scale parameters (very slow)")
	jsonPath := flag.String("json", "", "write scenario metrics as a benchfmt JSON artifact to this file")
	cpusFlag := flag.String("cpus", "", "comma-separated GOMAXPROCS values to sweep (e.g. 1,4); metrics are stamped per value")
	cpuProfilePath := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfilePath := flag.String("memprofile", "", "write a heap profile (after a forced GC) at the end of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchrunner [-quick|-full] [-json FILE] [-cpus N,N] [-cpuprofile FILE] [-memprofile FILE] TEST\nTESTs: figure1 figure3 figure4 figure5a figure5b figure6a figure6b figure7 figure8 table1 table2 quantiles-error sharded mergedquery reshard autoscale server ingest view window checkpoint baseline all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProfilePath != "" {
		f, err := os.Create(*cpuProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cpusList, err := parseCpus(*cpusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc := defaultScale
	scaleName := "default"
	if *quick {
		sc = quickScale
		scaleName = "quick"
	}
	if *full {
		sc = fullScale
		scaleName = "full"
	}
	if *jsonPath != "" {
		artifact = benchfmt.New("benchrunner", scaleName)
		artifact.GoMaxProcs = runtime.GOMAXPROCS(0)
		artifact.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}

	test := flag.Arg(0)
	fmt.Printf("# benchrunner %s  (GOMAXPROCS=%d, NumCPU=%d, %s)\n",
		test, runtime.GOMAXPROCS(0), runtime.NumCPU(), time.Now().Format(time.RFC3339))

	run := func(name string, fn func(scale)) {
		fmt.Printf("\n## %s\n", name)
		start := time.Now()
		fn(sc)
		fmt.Printf("# %s done in %v\n", name, time.Since(start).Round(time.Millisecond))
	}

	tests := map[string]func(scale){
		"figure1":         figure1,
		"figure3":         figure3,
		"figure4":         figure4,
		"figure5a":        func(s scale) { figure5(s, 1.0) },
		"figure5b":        func(s scale) { figure5(s, 0.04) },
		"figure6a":        figure6a,
		"figure6b":        figure6b,
		"figure7":         figure7,
		"figure8":         figure8,
		"table1":          table1,
		"table2":          table2,
		"quantiles-error": quantilesError,
		"sharded":         sharded,
		"mergedquery":     mergedQuery,
		"reshard":         reshard,
		"autoscale":       autoscaleScenario,
		"server":          serverScenario,
		"ingest":          ingestScenario,
		"view":            viewScenario,
		"window":          windowScenario,
		"checkpoint":      checkpointScenario,
		"ops":             opsScenario,
	}
	// baseline is the fixed scenario set the CI bench-baseline job runs and
	// benchdiff gates: the scale-out layers, not the paper figures.
	baselineOrder := []string{"sharded", "mergedquery", "reshard", "autoscale", "server", "ingest", "view", "window", "checkpoint", "ops"}
	finish := func() {
		if *cpuProfilePath != "" {
			pprof.StopCPUProfile()
			fmt.Printf("# wrote CPU profile to %s\n", *cpuProfilePath)
		}
		if *memProfilePath != "" {
			f, err := os.Create(*memProfilePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("# wrote heap profile to %s\n", *memProfilePath)
		}
		if artifact != nil {
			if err := artifact.WriteFile(*jsonPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("# wrote %d metrics to %s\n", len(artifact.Metrics), *jsonPath)
		}
	}
	var order []string
	switch test {
	case "all":
		order = []string{"table1", "figure3", "figure4", "figure1", "figure5a", "figure5b",
			"figure6a", "figure6b", "figure7", "figure8", "table2", "quantiles-error", "sharded",
			"mergedquery", "reshard", "autoscale", "server", "ingest", "view", "window", "checkpoint", "ops"}
	case "baseline":
		order = baselineOrder
	default:
		if _, ok := tests[test]; !ok {
			fmt.Fprintf(os.Stderr, "unknown test %q\n", test)
			flag.Usage()
			os.Exit(2)
		}
		order = []string{test}
	}
	runOrder := func() {
		for _, name := range order {
			run(name, tests[name])
		}
	}
	if len(cpusList) == 0 {
		runOrder()
	} else {
		orig := runtime.GOMAXPROCS(0)
		for _, n := range cpusList {
			runtime.GOMAXPROCS(n)
			metricCpus = n
			fmt.Printf("\n#### pass GOMAXPROCS=%d\n", n)
			runOrder()
		}
		runtime.GOMAXPROCS(orig)
		metricCpus = 0
	}
	finish()
}

// figure1: scalability of the concurrent Θ sketch vs a lock-based sketch,
// update-only workload, b=1, k=4096 (paper Figure 1).
func figure1(sc scale) {
	fmt.Println("threads\tconcurrent_Mops\tlockbased_Mops")
	conc := harness.ScalabilityProfile(harness.ScalabilityConfig{
		MaxThreads: sc.maxThreads, Uniques: sc.scalUniques, Trials: sc.scalTrials,
		LgK: 12, BufferSize: 1,
	})
	lock := harness.ScalabilityProfile(harness.ScalabilityConfig{
		MaxThreads: sc.maxThreads, Uniques: sc.scalUniques, Trials: sc.scalTrials,
		LgK: 12, BufferSize: 1, LockBased: true,
	})
	for i := range conc {
		fmt.Printf("%d\t%.2f\t%.2f\n", conc[i].Threads, conc[i].MopsPerSec, lock[i].MopsPerSec)
	}
}

// figure3: regions where the strong adversary hides 0 vs r elements, over
// the joint range of M(k), M(k+r) (paper Figure 3).
func figure3(sc scale) {
	_ = sc
	const n, k = 1 << 15, 1 << 10
	// Plot window centred on k/n = 1/32 ≈ 0.031.
	grid := adversary.Figure3Grid(n, k, 0.025, 0.040, 31)
	fmt.Println("Mk\tMkr\tregion") // region: 0 → g=0 (light gray), 1 → g=r (dark gray), -1 infeasible
	for _, p := range grid {
		region := -1
		if p.Feasible {
			region = 0
			if p.PicksR {
				region = 1
			}
		}
		fmt.Printf("%.5f\t%.5f\t%d\n", p.X, p.Y, region)
	}
}

// figure4: distribution of the sequential estimator e and the weak-adversary
// estimator e_Aw (paper Figure 4).
func figure4(sc scale) {
	const n, k, r = 1 << 15, 1 << 10, 8
	sim := adversary.NewSimulator(n, k, r, 1)
	seq, _, weak := sim.Run(sc.advTrials)
	lo, hi := float64(n)*0.85, float64(n)*1.15
	centres, seqD := adversary.Histogram(seq, lo, hi, 60)
	_, weakD := adversary.Histogram(weak, lo, hi, 60)
	fmt.Println("estimate\tdensity_seq\tdensity_weak")
	for i := range centres {
		fmt.Printf("%.1f\t%.3e\t%.3e\n", centres[i], seqD[i], weakD[i])
	}
}

// figure5: accuracy pitchforks (paper Figures 5a/5b), k=4096.
func figure5(sc scale, e float64) {
	cfg := harness.AccuracyConfig{
		LgMinU: 0, LgMaxU: sc.lgMaxU, PPO: sc.ppo, Trials: sc.accTrials,
		LgK: 12, MaxError: e, CapRE: 0.1,
	}
	if e >= 1 {
		cfg.BufferSize = 16
	}
	pts := harness.AccuracyProfile(cfg)
	fmt.Println("uniques\ttrials\tmeanRE\tQ01\tQ25\tQ50\tQ75\tQ99")
	for _, p := range pts {
		fmt.Printf("%d\t%d\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\n",
			p.Uniques, p.Trials, p.MeanRE, p.Q01, p.Q25, p.Q50, p.Q75, p.Q99)
	}
}

// figure6a: write-only throughput over the full stream-size sweep for
// several writer counts plus lock-based baselines (paper Figure 6a).
func figure6a(sc scale) {
	writerCounts := []int{1, 2, 4}
	lockCounts := []int{1, 4}
	fmt.Print("uniques")
	for _, w := range writerCounts {
		fmt.Printf("\tconc_%dw_Mops", w)
	}
	for _, w := range lockCounts {
		fmt.Printf("\tlock_%dw_Mops", w)
	}
	fmt.Println()

	var cols [][]harness.ThroughputPoint
	for _, w := range writerCounts {
		cols = append(cols, harness.SpeedProfile(harness.SpeedConfig{
			LgMinU: 0, LgMaxU: sc.lgMaxU, PPO: sc.ppo,
			MaxTrials: sc.maxTrials, MinTrials: sc.minTrials,
			Writers: w, LgK: 12, MaxError: 0.04,
		}))
	}
	for _, w := range lockCounts {
		cols = append(cols, harness.SpeedProfile(harness.SpeedConfig{
			LgMinU: 0, LgMaxU: sc.lgMaxU, PPO: sc.ppo,
			MaxTrials: sc.maxTrials, MinTrials: sc.minTrials,
			Writers: w, LgK: 12, MaxError: 1.0, LockBased: true,
		}))
	}
	for i := range cols[0] {
		fmt.Printf("%d", cols[0][i].Uniques)
		for _, col := range cols {
			fmt.Printf("\t%.3f", col[i].MopsPerSec)
		}
		fmt.Println()
	}
}

// figure6b: zoom on large stream sizes (paper Figure 6b).
func figure6b(sc scale) {
	lgMin := sc.lgMaxU - 4
	writerCounts := []int{1, 2, 4}
	fmt.Print("uniques")
	for _, w := range writerCounts {
		fmt.Printf("\tconc_%dw_Mops", w)
	}
	fmt.Println("\tlock_1w_Mops")
	var cols [][]harness.ThroughputPoint
	for _, w := range writerCounts {
		cols = append(cols, harness.SpeedProfile(harness.SpeedConfig{
			LgMinU: lgMin, LgMaxU: sc.lgMaxU, PPO: sc.ppo,
			MaxTrials: sc.minTrials * 2, MinTrials: sc.minTrials,
			Writers: w, LgK: 12, MaxError: 0.04,
		}))
	}
	cols = append(cols, harness.SpeedProfile(harness.SpeedConfig{
		LgMinU: lgMin, LgMaxU: sc.lgMaxU, PPO: sc.ppo,
		MaxTrials: sc.minTrials * 2, MinTrials: sc.minTrials,
		Writers: 1, LgK: 12, MaxError: 1.0, LockBased: true,
	}))
	for i := range cols[0] {
		fmt.Printf("%d", cols[0][i].Uniques)
		for _, col := range cols {
			fmt.Printf("\t%.3f", col[i].MopsPerSec)
		}
		fmt.Println()
	}
}

// figure7: mixed read-write workload — 1 and 2 writers with 10 background
// readers, concurrent vs lock-based (paper Figure 7).
func figure7(sc scale) {
	fmt.Println("variant\twriters\treaders\tMops\tqueries")
	for _, writers := range []int{1, 2} {
		for _, lock := range []bool{false, true} {
			res := harness.MixedProfile(harness.MixedConfig{
				Writers: writers, Readers: 10, ReaderPause: time.Millisecond,
				Uniques: sc.mixedUniques, Trials: sc.mixedTrials,
				LgK: 12, MaxError: 0.04, LockBased: lock,
			})
			name := "concurrent"
			if lock {
				name = "lockbased"
			}
			fmt.Printf("%s\t%d\t%d\t%.3f\t%d\n", name, writers, res.Readers, res.MopsPerSec, res.QueriesRun)
		}
		// And without background readers, for the "with and without" claim.
		for _, lock := range []bool{false, true} {
			res := harness.MixedProfile(harness.MixedConfig{
				Writers: writers, Readers: 1, ReaderPause: time.Hour, // effectively no reads
				Uniques: sc.mixedUniques, Trials: sc.mixedTrials,
				LgK: 12, MaxError: 0.04, LockBased: lock,
			})
			name := "concurrent_noreaders"
			if lock {
				name = "lockbased_noreaders"
			}
			fmt.Printf("%s\t%d\t0\t%.3f\t%d\n", name, writers, res.MopsPerSec, res.QueriesRun)
		}
	}
}

// figure8: speedup of eager (e=0.04) over no-eager (e=1.0) on small streams
// (paper Figure 8).
func figure8(sc scale) {
	pts := harness.EagerSpeedupProfile(0, 14, sc.ppo, sc.maxTrials, sc.minTrials)
	fmt.Println("uniques\teager_Mops\tnoeager_delegate_Mops\tnoeager_buffered_Mops\tspeedup_vs_delegate")
	for _, p := range pts {
		fmt.Printf("%d\t%.3f\t%.3f\t%.3f\t%.3f\n", p.Uniques, p.EagerMops, p.NoEagerDelegateMops, p.NoEagerBufferedMops, p.Speedup)
	}
}

// table1: Θ error analysis (paper Table 1: r=8, k=2^10, n=2^15).
func table1(sc scale) {
	rows := adversary.Table1(1<<15, 1<<10, 8, sc.advTrials, 1)
	fmt.Println("estimator\tmean_estimate\tmean/n\tRSE\tclosed_form_mean\tclosed_form_RSE_bound")
	n := float64(int(1) << 15)
	for _, r := range rows {
		fmt.Printf("%s\t%.1f\t%.4f\t%.4f\t%.1f\t%.4f\n",
			r.Name, r.MeanEstimate, r.MeanEstimate/n, r.RSE, r.ClosedFormMean, r.ClosedFormRSEUB)
	}
	fmt.Printf("# paper: sequential RSE ≤ 1/√(k−2) = %.4f; weak bound = %.4f; strong numerical ≈ 0.031–0.038\n",
		stats.SeqRSEBound(1<<10), stats.WeakAdversaryRSEBound(1<<10, 8))
}

// table2: performance/accuracy tradeoff as a function of k (paper Table 2).
func table2(sc scale) {
	rows := harness.Table2(harness.Table2Config{
		LgKs:   []int{8, 10, 12},
		LgMinU: 0, LgMaxU: sc.lgMaxU, PPO: sc.ppo,
		SpeedTrials: sc.maxTrials / 2, AccTrials: sc.accTrials / 2,
	})
	fmt.Println("k\tthpt_crossing_point\tmax_err_Q50\tmax_err_Q99")
	for _, r := range rows {
		fmt.Printf("%d\t%d\t%.2f\t%.2f\n", r.K, r.CrossingPoint, r.MaxMedianRE, r.MaxQ99RE)
	}
	fmt.Println("# paper (12-core Xeon): k=256→15000/0.16/0.27, k=1024→100000/0.05/0.13, k=4096→700000/0.03/0.05")
}

// sharded: the scale-out scenario — a sharded Θ registry sketch under a
// write-heavy workload with live merged queries, swept over shard counts.
// Shows the throughput/staleness trade: ingest Mops should grow with S
// (one propagator per shard) while the combined relaxation bound S·r grows
// linearly. Also reports measured merged-query latency, which grows with S
// (one snapshot fold per shard).
func sharded(sc scale) {
	writers := sc.maxThreads
	if writers > 4 {
		writers = 4
	}
	uniques := sc.mixedUniques
	fmt.Println("shards\twriters\tingest_Mops\trelaxation_Sr\tquery_us\tfinal_RE")
	for _, s := range []int{1, 2, 4, 8} {
		var ingestNs, queryNs float64
		var queries int64
		var finalRE float64
		relax := 0
		for tr := 0; tr < sc.mixedTrials; tr++ {
			sk, err := shard.NewTheta(12, shard.Config{
				Shards: s, Writers: writers, MaxError: 0.04,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			stopQ := make(chan struct{})
			var qwg sync.WaitGroup
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				for {
					select {
					case <-stopQ:
						return
					default:
					}
					t0 := time.Now()
					_ = sk.Estimate()
					queryNs += float64(time.Since(t0).Nanoseconds())
					queries++
					time.Sleep(time.Millisecond)
				}
			}()
			base := uint64(tr) << 44
			per := uniques / writers
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo := base + uint64(w*per)
					for i := 0; i < per; i++ {
						sk.Update(w, lo+uint64(i))
					}
				}(w)
			}
			wg.Wait()
			ingestNs += float64(time.Since(start).Nanoseconds())
			close(stopQ)
			qwg.Wait()
			relax = sk.Relaxation()
			sk.Close()
			finalRE = sk.Estimate()/float64(writers*per) - 1
		}
		nUpd := float64(uniques/writers*writers) * float64(sc.mixedTrials)
		nsPer := ingestNs / nUpd
		avgQueryUs := 0.0
		if queries > 0 {
			avgQueryUs = queryNs / float64(queries) / 1e3
		}
		fmt.Printf("%d\t%d\t%.3f\t%d\t%.2f\t%.4f\n",
			s, writers, 1e3/nsPer, relax, avgQueryUs, finalRE)
		record(benchfmt.Metric{Scenario: "sharded",
			Name: fmt.Sprintf("theta/S=%d/ingest", s), OpsPerSec: 1e9 / nsPer})
		record(benchfmt.Metric{Scenario: "sharded",
			Name: fmt.Sprintf("theta/S=%d/mergedquery", s), NsPerOp: avgQueryUs * 1e3})
	}
}

// mergedquery: the merge-on-query plane — ns/op and allocs/op of merged
// queries through the registry across shard counts, for the pooled path
// (reused accumulator from the sketch's pool; the hot path), the
// caller-owned QueryInto path, and the pre-refactor fresh-accumulator-per-
// query path kept as the allocation baseline. Θ and HLL pooled queries are
// zero-alloc steady-state; quantiles and Count-Min amortise to zero once
// the reused accumulator's capacity stabilises.
func mergedQuery(sc scale) {
	uniques := sc.mixedUniques
	if uniques > 1<<16 {
		uniques = 1 << 16 // query cost is snapshot-, not stream-, sized
	}
	fmt.Println("family\tshards\tpath\tns_op\tallocs_op\tbytes_op")
	for _, s := range []int{1, 2, 4, 8} {
		suite, err := mergedbench.NewSuite(s, uniques)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, c := range suite.Cases() {
			res := testing.Benchmark(c.Fn)
			fmt.Printf("%s\t%d\t%s\t%d\t%d\t%d\n",
				c.Family, s, c.Path, res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp())
			// Θ/HLL pooled and caller-owned paths are the pinned zero-alloc
			// contract (PR 2); "fresh" is the allocation baseline, never
			// pinned.
			pinned := c.Path != "fresh" && (c.Family == "theta" || c.Family == "hll")
			record(benchfmt.Metric{Scenario: "mergedquery",
				Name:            fmt.Sprintf("%s/S=%d/%s", c.Family, s, c.Path),
				NsPerOp:         float64(res.NsPerOp()),
				AllocsPerOp:     benchfmt.Int64(res.AllocsPerOp()),
				BytesPerOp:      benchfmt.Int64(res.AllocedBytesPerOp()),
				PinnedZeroAlloc: pinned,
			})
		}
	}
}

// reshard: the live-resharding scenario — writers hammer a sharded Θ sketch
// for a fixed wall-clock run while a resizer grows the group mid-run and
// collapses it again later; a sampler reports the ingest-throughput
// timeline in fixed windows. The output shows the throughput dip during
// each epoch-swap transition (building the new shard frameworks, the writer
// grace period, draining and folding the old shards) and the new
// steady-state level after it, together with the relaxation bound S·r the
// query plane pays at each instant — the throughput/staleness trade-off
// being walked live. The final column marks samples that overlap a Resize
// call; the summary lines report each transition's wall-clock drain time.
func reshard(sc scale) {
	writers := sc.maxThreads
	if writers > 4 {
		writers = 4
	}
	runFor := 3 * time.Second
	switch {
	case sc.lgMaxU <= quickScale.lgMaxU:
		runFor = time.Second
	case sc.lgMaxU >= fullScale.lgMaxU:
		runFor = 10 * time.Second
	}
	const window = 25 * time.Millisecond
	schedule := []struct {
		at time.Duration // absolute offset into the run
		S  int
	}{{runFor / 3, 8}, {2 * runFor / 3, 2}}

	sk, err := shard.NewTheta(12, shard.Config{Shards: 2, Writers: writers, MaxError: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var updates atomic.Int64
	var resizing atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < 256; j++ { // amortise the stop check
					sk.Update(w, base+i*256+uint64(j))
				}
				updates.Add(256)
			}
		}(w)
	}

	type transition struct {
		from, to int
		at, took time.Duration
	}
	var transitions []transition
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for _, step := range schedule {
			select {
			case <-stop:
				return
			case <-time.After(step.at - time.Since(start)):
			}
			from := sk.Shards()
			resizing.Store(true)
			t0 := time.Now()
			if err := sk.Resize(step.S); err != nil {
				// A failed live resize is the one thing this scenario exists
				// to catch: fail the process so the CI smoke step goes red.
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			took := time.Since(t0)
			resizing.Store(false)
			transitions = append(transitions, transition{from, step.S, step.at, took})
		}
	}()

	fmt.Println("t_ms\tingest_Mops\tshards\trelaxation_Sr\tresizing")
	start := time.Now()
	last := int64(0)
	for time.Since(start) < runFor {
		time.Sleep(window)
		now := updates.Load()
		mops := float64(now-last) / window.Seconds() / 1e6
		last = now
		inResize := 0
		if resizing.Load() {
			inResize = 1
		}
		fmt.Printf("%d\t%.2f\t%d\t%d\t%d\n",
			time.Since(start).Milliseconds(), mops, sk.Shards(), sk.Relaxation(), inResize)
	}
	close(stop)
	wg.Wait()
	sk.Close()
	for _, tr := range transitions {
		fmt.Printf("# resize %d→%d at %v drained in %v\n", tr.from, tr.to, tr.at, tr.took)
		// Drain times are scheduler- and load-sensitive: trajectory data,
		// not a gate.
		record(benchfmt.Metric{Scenario: "reshard",
			Name:          fmt.Sprintf("drain/%dto%d", tr.from, tr.to),
			NsPerOp:       float64(tr.took.Nanoseconds()),
			Informational: true,
		})
	}
	fmt.Printf("# total ingested: %d updates; final estimate %.0f\n", updates.Load(), sk.Estimate())
	record(benchfmt.Metric{Scenario: "reshard",
		Name: "theta/ingest_across_swaps", OpsPerSec: float64(updates.Load()) / runFor.Seconds()})
}

// autoscaleScenario: the closed control loop over the relaxation parameter —
// a bursty load timeline drives the autoscale controller, which walks S up
// under the burst and back down through the lull, with throughput and the
// S·r staleness bound reported per sampling window and summarised per
// S-epoch. Writers hammer a sharded Count-Min sketch flat-out for the first
// ~45% of the run, then drop to a trickle; the controller (real clock, the
// production path) samples the sketch's pressure counters and resizes under
// its hysteresis policy. Count-Min is the demonstrative family because it
// never pre-filters: every update exerts propagation pressure, which is the
// pressure sharding parallelises (a Θ sketch deep in its sampling regime
// filters almost everything locally, so its controller correctly sees
// almost no pressure — and more shards would not make filtering faster).
// The walk is timing-sensitive (real clock, sub-second phases), so a
// missing walk is reported loudly but does not fail the process: the
// deterministic assertion of the closed loop lives in
// TestStressAutoscaleUnderFire, which paces the controller through a
// ManualClock and runs under -race in CI.
func autoscaleScenario(sc scale) {
	writers := sc.maxThreads
	if writers > 4 {
		writers = 4
	}
	runFor := 3 * time.Second
	switch {
	case sc.lgMaxU <= quickScale.lgMaxU:
		runFor = 1600 * time.Millisecond
	case sc.lgMaxU >= fullScale.lgMaxU:
		runFor = 8 * time.Second
	}
	burstFor := runFor * 45 / 100
	const window = 25 * time.Millisecond

	sk, err := shard.NewCountMin(0.001, 0.01, shard.Config{Shards: 2, Writers: writers, MaxError: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	policy := autoscale.Policy{
		MinShards: 2, MaxShards: 8,
		HighWater: 250e3, LowWater: 50e3,
		SustainedUp: 2, SustainedDown: 2,
		SampleEvery: window, Cooldown: 3 * window,
		// Cap the transitional window at 16·r — loose for this 8-shard
		// sweep ((8+8)·r at worst), shown here because production policies
		// should always set it.
		MaxTransitionalRelaxation: 16 * sk.ShardRelaxation(),
	}
	ctl, err := autoscale.New(sk, policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctl.Start()

	var updates atomic.Int64
	var light atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < 64; j++ {
					sk.Update(w, base+i*64+uint64(j))
				}
				updates.Add(64)
				if light.Load() {
					time.Sleep(10 * time.Millisecond) // the lull: a trickle
				}
			}
		}(w)
	}

	type sample struct {
		mops   float64
		shards int
	}
	var samples []sample
	fmt.Println("t_ms\tingest_Mops\tshards\trelaxation_Sr\tphase")
	start := time.Now()
	last := int64(0)
	burstUpdates := int64(-1)
	for time.Since(start) < runFor {
		time.Sleep(window)
		if burstUpdates < 0 && time.Since(start) >= burstFor {
			burstUpdates = updates.Load()
			light.Store(true)
		}
		now := updates.Load()
		mops := float64(now-last) / window.Seconds() / 1e6
		last = now
		phase := "burst"
		if light.Load() {
			phase = "lull"
		}
		s := sk.Shards()
		samples = append(samples, sample{mops, s})
		fmt.Printf("%d\t%.2f\t%d\t%d\t%s\n",
			time.Since(start).Milliseconds(), mops, s, sk.Relaxation(), phase)
	}
	close(stop)
	wg.Wait()
	ctl.Stop()
	sk.Close()

	// Per-epoch summary: consecutive windows at the same S are one epoch of
	// the walk.
	for i := 0; i < len(samples); {
		j, sum := i, 0.0
		for ; j < len(samples) && samples[j].shards == samples[i].shards; j++ {
			sum += samples[j].mops
		}
		fmt.Printf("# epoch S=%d: %d windows (%v), avg %.2f Mops, S·r=%d\n",
			samples[i].shards, j-i, time.Duration(j-i)*window,
			sum/float64(j-i), samples[i].shards*sk.ShardRelaxation())
		i = j
	}
	st := ctl.Stats()
	fmt.Printf("# controller: %d samples, %d ups, %d downs, %d held-cooldown, %d at-bound, final S=%d\n",
		st.Samples, st.ScaleUps, st.ScaleDowns, st.HeldCooldown, st.HeldAtBound, sk.Shards())
	if burstUpdates < 0 {
		burstUpdates = updates.Load()
	}
	record(benchfmt.Metric{Scenario: "autoscale",
		Name: "countmin/burst_ingest", OpsPerSec: float64(burstUpdates) / burstFor.Seconds()})
	record(benchfmt.Metric{Scenario: "autoscale",
		Name: "scale_ups", Value: float64(st.ScaleUps), Informational: true})
	record(benchfmt.Metric{Scenario: "autoscale",
		Name: "scale_downs", Value: float64(st.ScaleDowns), Informational: true})
	if st.ScaleUps == 0 || st.ScaleDowns == 0 {
		// The walk is the scenario's reason to exist, but it depends on the
		// machine sustaining the burst rate in real time — warn loudly
		// (visible in the CI log, and as zeroed scale_ups/scale_downs in
		// the JSON artifact) rather than failing a possibly-throttled run.
		// The deterministic walk assertion is TestStressAutoscaleUnderFire.
		fmt.Fprintf(os.Stderr, "autoscale: WARNING: controller never walked S (ups=%d downs=%d) — throttled machine, or a real control-loop regression\n",
			st.ScaleUps, st.ScaleDowns)
	}
}

// quantilesError: Section 6.2 validation — the relaxed PAC bound ε_r holds
// for live queries and converges to ε as n grows.
func quantilesError(sc scale) {
	sizes := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	trials := 2
	if sc.accTrials >= 256 {
		trials = 4
	}
	pts := harness.QuantilesErrorProfile(128, 8, sizes, trials)
	fmt.Println("n\tr\tmax_observed_dev\tmax_dev/bound\teps_r\teps_seq")
	for _, p := range pts {
		fmt.Printf("%d\t%d\t%.5f\t%.3f\t%.5f\t%.5f\n",
			p.N, p.Relaxation, p.MaxDev, p.MaxDevOverBound, p.RelaxedBound, p.SeqEps)
	}
}

// serverScenario: the network front-end — an in-process sketchd (server
// over a registry) on loopback, driven through the fastsketches/client
// library exactly as a remote service would be. Reports batched-ingest
// throughput (N concurrent client goroutines, each with its own batch
// buffer and pooled connection, fanned server-side into writer lanes) and
// round-trip query latency with end-to-end allocs/op for the pinned
// zero-alloc serving paths (Θ merged estimate through per-connection
// accumulator reuse; Count-Min per-key count). The allocation figures are
// machine-independent contracts; throughput/latency gate the serving path's
// trajectory the same way the in-process scenarios do.
func serverScenario(sc scale) {
	writers := sc.maxThreads
	if writers > 4 {
		writers = 4
	}
	uniques := sc.mixedUniques
	const batchSize = 4096

	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: writers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := server.New(reg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := client.Dial(ln.Addr().String(), client.Options{
		Conns: writers, BatchSize: batchSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Batched-ingest throughput: each goroutine streams its share through
	// its own batch buffer; every item is acked (completed server-side)
	// by the time the clock stops.
	per := uniques / writers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := cl.NewBatch(client.Theta, "bench.users")
			base := uint64(w) << 40
			for i := 0; i < per; i++ {
				if err := b.Add(base + uint64(i)); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			if err := b.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}(w)
	}
	wg.Wait()
	ingestNs := float64(time.Since(start).Nanoseconds())
	nUpd := float64(per * writers)
	fmt.Println("metric\tvalue")
	fmt.Printf("ingest_conns\t%d\n", writers)
	fmt.Printf("batch_items\t%d\n", batchSize)
	fmt.Printf("ingest_Mops\t%.3f\n", nUpd*1e3/ingestNs)
	record(benchfmt.Metric{Scenario: "server",
		Name: "theta/batched_ingest", OpsPerSec: 1e9 * nUpd / ingestNs})

	// Count-Min stream for the per-key path.
	cb := cl.NewBatch(client.CountMin, "bench.api")
	for i := 0; i < 1<<14; i++ {
		if err := cb.Add(uint64(i % 64)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := cb.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Warm pools, accumulators, buffers on both paths before measuring.
	for i := 0; i < 64; i++ {
		if _, err := cl.ThetaEstimate("bench.users"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := cl.Count("bench.api", 7); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Merged-estimate latency: fold-dominated (S snapshot folds per query),
	// so the ns/op gate tracks the serving fold path, not raw loopback RTT —
	// a baseline recorded on slow hardware stays a valid ceiling for faster
	// CI runners. Allocs/op is the end-to-end pinned zero-alloc contract
	// (client encode → server QueryInto via the per-connection accumulator →
	// client decode).
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.ThetaEstimate("bench.users"); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	})
	fmt.Printf("theta/estimate_us\t%.2f\n", float64(res.NsPerOp())/1e3)
	fmt.Printf("theta/estimate_allocs\t%d\n", res.AllocsPerOp())
	record(benchfmt.Metric{Scenario: "server",
		Name:            "theta/estimate",
		NsPerOp:         float64(res.NsPerOp()),
		AllocsPerOp:     benchfmt.Int64(res.AllocsPerOp()),
		BytesPerOp:      benchfmt.Int64(res.AllocedBytesPerOp()),
		PinnedZeroAlloc: true,
	})

	// Per-key count: RTT-bound (the owning-shard read is nanoseconds), so a
	// sequential ns/op would gate the runner's loopback latency rather than
	// our code. Gate it as pipelined throughput instead — 4 concurrent
	// queriers per proc keep the wire full, and an ops/sec floor recorded on
	// slow hardware only trips on genuine serving-path regressions — with
	// the allocs/op contract still pinned.
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := cl.Count("bench.api", 7); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		})
	})
	fmt.Printf("countmin/count_pipelined_kops\t%.1f\n", 1e6/float64(res.NsPerOp()))
	fmt.Printf("countmin/count_allocs\t%d\n", res.AllocsPerOp())
	record(benchfmt.Metric{Scenario: "server",
		Name:            "countmin/count",
		OpsPerSec:       1e9 / float64(res.NsPerOp()),
		AllocsPerOp:     benchfmt.Int64(res.AllocsPerOp()),
		BytesPerOp:      benchfmt.Int64(res.AllocedBytesPerOp()),
		PinnedZeroAlloc: true,
	})

	// A served resize under load, for the drain-time trajectory.
	t0 := time.Now()
	if err := cl.Resize(client.Theta, "bench.users", 4); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("resize_2to4_ms\t%.2f\n", float64(time.Since(t0).Microseconds())/1e3)
	record(benchfmt.Metric{Scenario: "server",
		Name: "resize/2to4", NsPerOp: float64(time.Since(t0).Nanoseconds()),
		Informational: true})

	cl.Close()
	srv.Shutdown()
	<-serveDone
	reg.Close()
}

// ingestScenario: the ingest hot path in isolation — the full server path
// (client encode → TCP → frame decode → per-lane scratch decode → ring
// dispatch across lane workers → batched writer updates → ack) measured as
// ns/item and acked batches/sec across batch sizes straddling the lane
// fan-out threshold and across lane counts, with allocs per synchronous
// flush pinned at zero. Count-Min is the measured family because it never
// pre-filters: every item takes the full propagation path, so ns/item is a
// property of the serving machinery rather than of a shrinking Θ. Four
// concurrent ingesters (each with its own connection and batch buffer) keep
// the lane rings pipelined the way production clients do.
func ingestScenario(sc scale) {
	const ingesters = 4
	items := 1 << 19
	switch {
	case sc.lgMaxU <= quickScale.lgMaxU:
		items = 1 << 17
	case sc.lgMaxU >= fullScale.lgMaxU:
		items = 1 << 21
	}

	fmt.Println("lanes\tbatch\tns_item\tbatches_per_sec\tflush_allocs")
	for _, lanes := range []int{1, 4} {
		reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
			Shards: 2, Writers: lanes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv := server.New(reg)
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		cl, err := client.Dial(ln.Addr().String(), client.Options{
			Conns: ingesters, BatchSize: 8192,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		for _, batch := range []int{64, 1024, 4096} {
			name := fmt.Sprintf("bench.ingest.l%d.b%d", lanes, batch)
			flush := func(b *client.Batch) {
				if err := b.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			// Warm: sketch creation, lane workers, per-lane decode scratch,
			// client frame buffers.
			wb := cl.NewBatch(client.CountMin, name)
			for i := 0; i < 4*batch; i++ {
				if err := wb.Add(uint64(i % 1024)); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if wb.Len() == batch {
					flush(wb)
				}
			}
			flush(wb)

			// Throughput: wall-clock over the whole concurrent stream; every
			// batch is acked (items completed server-side) inside the window.
			per := items / ingesters
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < ingesters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					b := cl.NewBatch(client.CountMin, name)
					for i := 0; i < per; i++ {
						if err := b.Add(uint64(i % 1024)); err != nil {
							fmt.Fprintln(os.Stderr, err)
							os.Exit(1)
						}
						if b.Len() == batch {
							flush(b)
						}
					}
					flush(b)
				}(g)
			}
			wg.Wait()
			elapsed := time.Since(start)
			nsItem := float64(elapsed.Nanoseconds()) / float64(per*ingesters)
			batchesPerSec := float64(per*ingesters) / float64(batch) / elapsed.Seconds()

			// Allocation contract: one synchronous fill+flush per op, steady
			// state — the ring dispatch and batched writer path allocate
			// nothing (the old path paid a WaitGroup escape per batch).
			ab := cl.NewBatch(client.CountMin, name)
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := 0; j < batch; j++ {
						if err := ab.Add(uint64(j % 1024)); err != nil {
							fmt.Fprintln(os.Stderr, err)
							os.Exit(1)
						}
					}
					flush(ab)
				}
			})

			fmt.Printf("%d\t%d\t%.1f\t%.1f\t%d\n",
				lanes, batch, nsItem, batchesPerSec, res.AllocsPerOp())
			record(benchfmt.Metric{Scenario: "ingest",
				Name:      fmt.Sprintf("countmin/lanes=%d/batch=%d", lanes, batch),
				NsPerOp:   nsItem, // per item, not per batch
				OpsPerSec: batchesPerSec,
			})
			record(benchfmt.Metric{Scenario: "ingest",
				Name:            fmt.Sprintf("countmin/lanes=%d/batch=%d/flush", lanes, batch),
				AllocsPerOp:     benchfmt.Int64(res.AllocsPerOp()),
				BytesPerOp:      benchfmt.Int64(res.AllocedBytesPerOp()),
				PinnedZeroAlloc: true,
			})
		}

		cl.Close()
		srv.Shutdown()
		<-serveDone
		reg.Close()
	}
}

// viewSink keeps view-scenario query results observable so the folds are not
// elided.
var viewSink float64

// viewScenario: the materialized-view query plane — merged-query latency
// through a published view at S=1 vs S=8 against the live S-shard fold. The
// view fold copies ONE merged accumulator regardless of S, so its latency
// must be flat across shard counts (the S=8/S=1 ratio is the O(1)-in-S
// contract: target ≤ 2, vs the live fold whose cost grows with S) and
// zero-alloc steady-state (pinned). RefreshViewNow's cost — the O(S) fold
// the refresher pays so queriers don't — is reported as the trajectory's
// informational counterpart. The refresher is parked on a manual clock with
// a never-expiring view, so the timer only ever sees the query path.
func viewScenario(sc scale) {
	uniques := sc.mixedUniques
	if uniques > 1<<16 {
		uniques = 1 << 16 // query cost is snapshot-, not stream-, sized
	}
	fmt.Println("shards\tpath\tns_op\tallocs_op\tbytes_op")
	viewNs := map[int]float64{}
	for _, s := range []int{1, 8} {
		sk, err := shard.NewTheta(12, shard.Config{Shards: s, Writers: 1, MaxError: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i := 0; i < uniques; i++ {
			sk.Update(0, uint64(i))
		}
		// Writers are quiescent from here, so the live fold and the view
		// measure the same stable state.
		clk := clock.NewManual(time.Unix(1<<20, 0))
		if err := sk.EnableView(shard.ViewConfig{
			RefreshEvery: time.Hour, MaxAge: -1, Clock: clk,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		acc := sk.NewAccumulator()
		sk.QueryInto(acc) // warm the caller-owned accumulator
		resView := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sk.QueryInto(acc)
				viewSink = acc.Estimate()
			}
		})
		fmt.Printf("%d\tview\t%d\t%d\t%d\n",
			s, resView.NsPerOp(), resView.AllocsPerOp(), resView.AllocedBytesPerOp())
		viewNs[s] = float64(resView.NsPerOp())
		record(benchfmt.Metric{Scenario: "view",
			Name:            fmt.Sprintf("theta/S=%d/query", s),
			NsPerOp:         float64(resView.NsPerOp()),
			AllocsPerOp:     benchfmt.Int64(resView.AllocsPerOp()),
			BytesPerOp:      benchfmt.Int64(resView.AllocedBytesPerOp()),
			PinnedZeroAlloc: true,
		})

		resRefresh := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !sk.RefreshViewNow() {
					fmt.Fprintln(os.Stderr, "view: RefreshViewNow failed mid-benchmark")
					os.Exit(1)
				}
			}
		})
		fmt.Printf("%d\trefresh\t%d\t-\t-\n", s, resRefresh.NsPerOp())
		record(benchfmt.Metric{Scenario: "view",
			Name:          fmt.Sprintf("theta/S=%d/refresh", s),
			NsPerOp:       float64(resRefresh.NsPerOp()),
			Informational: true, // the O(S) cost moved off the query path
		})

		sk.DisableView()
		resLive := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sk.QueryInto(acc)
				viewSink = acc.Estimate()
			}
		})
		fmt.Printf("%d\tlivefold\t%d\t%d\t%d\n",
			s, resLive.NsPerOp(), resLive.AllocsPerOp(), resLive.AllocedBytesPerOp())
		record(benchfmt.Metric{Scenario: "view",
			Name:        fmt.Sprintf("theta/S=%d/livefold", s),
			NsPerOp:     float64(resLive.NsPerOp()),
			AllocsPerOp: benchfmt.Int64(resLive.AllocsPerOp()),
			BytesPerOp:  benchfmt.Int64(resLive.AllocedBytesPerOp()),
		})
		sk.Close()
	}
	ratio := viewNs[8] / viewNs[1]
	fmt.Printf("# view query latency S=8 / S=1 = %.2f (O(1)-in-S contract: ≤ 2)\n", ratio)
	record(benchfmt.Metric{Scenario: "view",
		Name: "theta/query_ratio_s8_over_s1", Value: ratio, Informational: true})
	if ratio > 2 {
		// Same posture as the autoscale walk: loud in the log and visible in
		// the artifact, but timing-sensitive enough (sub-µs folds) that the
		// hard process failure stays with the deterministic -race stress test.
		fmt.Fprintf(os.Stderr, "view: WARNING: S=8 view query is %.2fx S=1 (want ≤ 2): the view fold is not O(1) in S\n", ratio)
	}
}

// windowSink keeps windowed-query results observable so the folds are not
// elided.
var windowSink uint64

// windowScenario: the windowed query plane — windowed Count-Min queries
// through the materialized suffix-merge with every ring slot populated, at
// Slots=4 vs Slots=32. Rotation folds the closed slots into one suffix
// accumulator, so windowed query latency must be flat in the slot count
// (the Slots=32/Slots=4 ratio is the O(1)-in-Slots contract: target ≤ 2)
// and zero-alloc steady-state (pinned), for the caller-owned WindowQueryInto
// path, the pooled WindowCount scalar, and the time-decayed read.
// RotateNow's cost — the epoch drain plus the suffix-merge refresh the
// rotator pays so queriers don't — is reported as the trajectory's
// informational counterpart. The rotator is parked on a manual clock, so
// the timers only ever see explicit rotations.
func windowScenario(sc scale) {
	uniques := sc.mixedUniques
	if uniques > 1<<16 {
		uniques = 1 << 16 // query cost is summary-, not stream-, sized
	}
	fmt.Println("slots\tpath\tns_op\tallocs_op\tbytes_op")
	queryNs := map[int]float64{}
	for _, slots := range []int{4, 32} {
		sk, err := shard.NewCountMin(1e-4, 0.01, shard.Config{Shards: 4, Writers: 1, MaxError: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		clk := clock.NewManual(time.Unix(1<<20, 0))
		if err := sk.EnableWindow(shard.WindowConfig{
			Interval: time.Hour, Slots: slots, Decay: 0.5, Clock: clk,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Populate every ring slot with a closed interval, then one live
		// interval on top; writers are quiescent from here, so the timers
		// below measure a stable state.
		perSlot := uniques / slots
		for s := 0; s <= slots; s++ {
			for i := 0; i < perSlot; i++ {
				sk.Update(0, uint64(s*perSlot+i))
			}
			if s < slots && !sk.RotateNow() {
				fmt.Fprintln(os.Stderr, "window: RotateNow failed while populating")
				os.Exit(1)
			}
		}

		acc := sk.NewAccumulator()
		sk.WindowQueryInto(acc) // warm the caller-owned accumulator
		paths := []struct {
			name   string
			pinned bool
			fn     func()
		}{
			{"query", true, func() { sk.WindowQueryInto(acc); windowSink = acc.N() }},
			{"count", true, func() { windowSink, _ = sk.WindowCount(7) }},
			{"decayed", true, func() { windowSink, _ = sk.DecayedCount(7) }},
		}
		for _, p := range paths {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.fn()
				}
			})
			fmt.Printf("%d\t%s\t%d\t%d\t%d\n",
				slots, p.name, res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp())
			if p.name == "query" {
				queryNs[slots] = float64(res.NsPerOp())
			}
			record(benchfmt.Metric{Scenario: "window",
				Name:            fmt.Sprintf("countmin/slots=%d/%s", slots, p.name),
				NsPerOp:         float64(res.NsPerOp()),
				AllocsPerOp:     benchfmt.Int64(res.AllocsPerOp()),
				BytesPerOp:      benchfmt.Int64(res.AllocedBytesPerOp()),
				PinnedZeroAlloc: p.pinned,
			})
		}

		resRotate := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !sk.RotateNow() {
					fmt.Fprintln(os.Stderr, "window: RotateNow failed mid-benchmark")
					os.Exit(1)
				}
			}
		})
		fmt.Printf("%d\trotate\t%d\t-\t-\n", slots, resRotate.NsPerOp())
		record(benchfmt.Metric{Scenario: "window",
			Name:          fmt.Sprintf("countmin/slots=%d/rotate", slots),
			NsPerOp:       float64(resRotate.NsPerOp()),
			Informational: true, // the suffix fold moved off the query path
		})
		sk.Close()
	}
	ratio := queryNs[32] / queryNs[4]
	fmt.Printf("# windowed query latency Slots=32 / Slots=4 = %.2f (O(1)-in-Slots contract: ≤ 2)\n", ratio)
	record(benchfmt.Metric{Scenario: "window",
		Name: "countmin/query_ratio_slots32_over_slots4", Value: ratio, Informational: true})
	if ratio > 2 {
		// Same posture as the view walk: loud in the log and visible in the
		// artifact, but timing-sensitive enough that the hard process failure
		// stays with the deterministic stress tests.
		fmt.Fprintf(os.Stderr, "window: WARNING: Slots=32 windowed query is %.2fx Slots=4 (want ≤ 2): the suffix-merge is not O(1) in Slots\n", ratio)
	}
}

// checkpointScenario: the persistence plane — steady-state cost of taking a
// registry-wide checkpoint, the tax sketchd's durability loop pays every
// interval. The encode folds every sketch through the same pooled
// accumulators merged queries use and appends into a reused buffer, so with
// a pre-grown dst the steady-state checkpoint is zero-alloc (pinned, the
// same contract TestCheckpointZeroAllocSteadyState enforces per-op). The
// registry is quiesced first (a real resize drains every writer lane
// synchronously) so the measured cost is the encoder's, not the asynchronous
// ingest tail's. Checkpoint size and the warm-start restore cost (fresh
// registry + Restore of the blob — what a recovering sketchd pays before it
// can serve) are reported as informational trajectory data.
func checkpointScenario(sc scale) {
	uniques := sc.mixedUniques
	if uniques > 1<<16 {
		uniques = 1 << 16 // checkpoint cost is snapshot-, not stream-, sized
	}
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, Writers: 2, MaxError: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer reg.Close()
	thH, _ := reg.OpenTheta("ck.users", fastsketches.Spec{})
	hH, _ := reg.OpenHLL("ck.ips", fastsketches.Spec{})
	qH, _ := reg.OpenQuantiles("ck.lat", fastsketches.Spec{})
	cmH, _ := reg.OpenCountMin("ck.api", fastsketches.Spec{})
	th, h, q, cm := thH.Sketch(), hH.Sketch(), qH.Sketch(), cmH.Sketch()
	for i := 0; i < uniques; i++ {
		k := uint64(i)
		th.Update(i%2, k)
		h.Update(i%2, k)
		q.Update(i%2, float64(i))
		cm.Update(i%2, k%1024)
	}
	// Quiesce: propagation is asynchronous, and a propagator's merge
	// republishes its snapshot with a fresh O(retained) copy — the ingest
	// path's allocation, not the encoder's. A real resize (4→3) drains
	// every published and partial writer buffer synchronously.
	for _, err := range []error{
		thH.Resize(3), hH.Resize(3), qH.Resize(3), cmH.Resize(3),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	dst := reg.AppendCheckpoint(nil) // grow the caller-owned buffer once
	size := len(dst)
	resEnc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = reg.AppendCheckpoint(dst[:0])
		}
	})
	resWrite := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := reg.Checkpoint(io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	})
	resRestore := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
				Shards: 4, Writers: 2, MaxError: 1,
			})
			if err == nil {
				err = fresh.Restore(bytes.NewReader(dst))
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fresh.Close()
		}
	})

	fmt.Println("metric\tvalue")
	fmt.Printf("sketches\t4\n")
	fmt.Printf("checkpoint_bytes\t%d\n", size)
	fmt.Printf("append_us\t%.2f\n", float64(resEnc.NsPerOp())/1e3)
	fmt.Printf("append_allocs\t%d\n", resEnc.AllocsPerOp())
	fmt.Printf("write_us\t%.2f\n", float64(resWrite.NsPerOp())/1e3)
	fmt.Printf("write_allocs\t%d\n", resWrite.AllocsPerOp())
	fmt.Printf("restore_ms\t%.2f\n", float64(resRestore.NsPerOp())/1e6)
	record(benchfmt.Metric{Scenario: "checkpoint",
		Name:            "registry/append",
		NsPerOp:         float64(resEnc.NsPerOp()),
		AllocsPerOp:     benchfmt.Int64(resEnc.AllocsPerOp()),
		BytesPerOp:      benchfmt.Int64(resEnc.AllocedBytesPerOp()),
		PinnedZeroAlloc: true,
	})
	record(benchfmt.Metric{Scenario: "checkpoint",
		Name:            "registry/write",
		NsPerOp:         float64(resWrite.NsPerOp()),
		AllocsPerOp:     benchfmt.Int64(resWrite.AllocsPerOp()),
		BytesPerOp:      benchfmt.Int64(resWrite.AllocedBytesPerOp()),
		PinnedZeroAlloc: true,
	})
	record(benchfmt.Metric{Scenario: "checkpoint",
		Name: "registry/size_bytes", Value: float64(size), Informational: true})
	record(benchfmt.Metric{Scenario: "checkpoint",
		Name:          "registry/restore",
		NsPerOp:       float64(resRestore.NsPerOp()),
		Informational: true, // dominated by registry construction: trajectory, not a gate
	})
}

// opsScenario: the observability tax — or rather its absence. A registry
// with a multi-tenant population is scraped continuously (the full /metrics
// exposition rendered to a discarded writer) while the ingest and merged-
// query hot paths are timed; both must stay zero-alloc per op (pinned), the
// wait-free-counter contract that lets a scraper poll at any rate without
// touching sketch throughput. The scrape itself and a lifecycle sweep are
// recorded as informational trajectories (both allocate by design: the
// exposition buffer and the sweep's info snapshot).
func opsScenario(sc scale) {
	const tenants = 8
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer reg.Close()

	var cms [tenants]*fastsketches.CountMinHandle
	for i := range cms {
		h, err := reg.OpenCountMin(fmt.Sprintf("ops.tenant%d", i), fastsketches.Spec{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for j := uint64(0); j < 4096; j++ {
			h.Update(0, j%512)
		}
		cms[i] = h
	}
	if _, err := reg.OpenTheta("ops.uniques", fastsketches.Spec{}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	mc := clock.NewManual(time.Unix(1<<20, 0))
	mgr, err := ops.NewManager(reg, ops.Config{IdleTTL: time.Hour, MemBudget: 1 << 40, Clock: mc})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obs := &ops.IngestObserver{}
	for i := int64(1); i <= 4096; i <<= 1 {
		obs.ObserveChunk(i, i*300)
	}
	col := &ops.Collector{Reg: reg, Manager: mgr, Ingest: obs}

	// Scrape and sweep costs in isolation, for the trajectory.
	resScrape := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := col.WriteMetrics(io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	})
	resSweep := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr.Sweep()
		}
	})

	// The gated contract: the ingest hot path under a concurrent-scrape
	// antagonist. The scraper polls on a Prometheus-like cadence (its own
	// allocations are real but bounded per second) while the timed loop
	// hammers updates; benchmark alloc counters are process-wide, so the
	// pinned zero comes from the update path running millions of ops against
	// the antagonist's bounded hundreds of scrapes — any per-op allocation
	// on the ingest side would show up as ≥ 1.
	stop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = col.WriteMetrics(io.Discard)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	ing := cms[0]
	resIngest := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ing.Update(0, uint64(i)%512)
		}
	})
	acc := cms[1].NewAccumulator()
	cms[1].QueryInto(acc) // warm the caller-owned accumulator
	resQuery := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cms[1].QueryInto(acc)
		}
	})
	close(stop)
	<-scrapeDone

	fmt.Println("metric\tns_op\tallocs_op")
	fmt.Printf("scrape\t%d\t%d\n", resScrape.NsPerOp(), resScrape.AllocsPerOp())
	fmt.Printf("sweep\t%d\t0\n", resSweep.NsPerOp())
	fmt.Printf("ingest_under_scrape\t%d\t%d\n", resIngest.NsPerOp(), resIngest.AllocsPerOp())
	fmt.Printf("query_under_scrape\t%d\t%d\n", resQuery.NsPerOp(), resQuery.AllocsPerOp())

	record(benchfmt.Metric{Scenario: "ops",
		Name:            "ingest/scrape-antagonist",
		NsPerOp:         float64(resIngest.NsPerOp()),
		AllocsPerOp:     benchfmt.Int64(resIngest.AllocsPerOp()),
		BytesPerOp:      benchfmt.Int64(resIngest.AllocedBytesPerOp()),
		PinnedZeroAlloc: true,
	})
	record(benchfmt.Metric{Scenario: "ops",
		Name:          "query/scrape-antagonist",
		NsPerOp:       float64(resQuery.NsPerOp()),
		Informational: true, // op count too small to separate from the antagonist's allocs
	})
	record(benchfmt.Metric{Scenario: "ops",
		Name:          "scrape/tenants=9",
		NsPerOp:       float64(resScrape.NsPerOp()),
		AllocsPerOp:   benchfmt.Int64(resScrape.AllocsPerOp()),
		BytesPerOp:    benchfmt.Int64(resScrape.AllocedBytesPerOp()),
		Informational: true, // exposition buffer allocates by design
	})
	record(benchfmt.Metric{Scenario: "ops",
		Name:          "sweep/tenants=9",
		NsPerOp:       float64(resSweep.NsPerOp()),
		Informational: true,
	})
}
