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
//	benchrunner all             everything above, in order
//
// Use -quick for a fast smoke run (small sweeps, few trials) and -full for
// paper-scale parameters (hours). The default sits in between and completes
// in minutes on a laptop.
//
// The service layers above the paper's framework (sharding, registry,
// server, client, checkpoints, ops) are measured by the repo benchmark,
// `bash bench/run.sh` (see BENCHMARK.json and bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fastsketches/internal/adversary"
	"fastsketches/internal/harness"
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

// artifacts lists every TEST in the order `all` runs them.
var artifacts = []struct {
	name string
	run  func(scale)
}{
	{"table1", table1},
	{"figure3", figure3},
	{"figure4", figure4},
	{"figure1", figure1},
	{"figure5a", func(s scale) { figure5(s, 1.0) }},
	{"figure5b", func(s scale) { figure5(s, 0.04) }},
	{"figure6a", figure6a},
	{"figure6b", figure6b},
	{"figure7", figure7},
	{"figure8", figure8},
	{"table2", table2},
	{"quantiles-error", quantilesError},
}

func main() {
	quick := flag.Bool("quick", false, "fast smoke-run parameters")
	full := flag.Bool("full", false, "paper-scale parameters (very slow)")
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: benchrunner [-quick|-full] TEST\nTESTs:")
		for _, a := range artifacts {
			fmt.Fprint(os.Stderr, " ", a.name)
		}
		fmt.Fprintln(os.Stderr, " all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sc := defaultScale
	if *quick {
		sc = quickScale
	}
	if *full {
		sc = fullScale
	}

	test := flag.Arg(0)
	fmt.Printf("# benchrunner %s  (GOMAXPROCS=%d, NumCPU=%d, %s)\n",
		test, runtime.GOMAXPROCS(0), runtime.NumCPU(), time.Now().Format(time.RFC3339))
	ran := false
	for _, a := range artifacts {
		if test != "all" && test != a.name {
			continue
		}
		ran = true
		fmt.Printf("\n## %s\n", a.name)
		start := time.Now()
		a.run(sc)
		fmt.Printf("# %s done in %v\n", a.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown test %q\n", test)
		flag.Usage()
		os.Exit(2)
	}
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
