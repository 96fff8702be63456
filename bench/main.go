// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics, and — in a traced run — a ledger of what each layer
// of the stack costs. See README.md for what every workload and metric
// means and BENCHMARK.json (repository root) for the contract it is run
// under.
//
//	go run -C bench . -workload lib_ingest -seed 1
//	go run -C bench . -workload all -seed 1 -trace 1
//	go run -C bench . -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var cfg config
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 16, "nominal length of the timed section, in seconds")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, span files, layer ledger); 0: end-to-end metrics")
	aa := flag.Int("aa", 0, "run the whole suite as two interleaved sets of this many runs and compare them")
	flag.StringVar(&cfg.root, "root", defaultRoot(), "repository root")
	flag.BoolVar(&cfg.breakCheck, "break-check", false, "self-test: expect one Count-Min item too many, so the run must fail")
	flag.Parse()
	if flag.NArg() != 0 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace != 0

	if *aa > 0 {
		os.Exit(runAA(cfg, *aa))
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	code := 0
	for _, n := range names {
		res, err := runWorkload(n, cfg)
		if err == nil && cfg.trace {
			err = addLedger(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		if res.failed > 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// defaultRoot finds the repository root from the two places the command is
// started from: the root itself (run.sh) and bench/ (go run -C bench).
func defaultRoot() string {
	if _, err := os.Stat("cmd/sketchd"); err == nil {
		return "."
	}
	return ".."
}

// schema returns the metric definitions the run must report.
func (r *runResult) schema() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable report and, as the last line, the one
// JSON object the benchmark contract asks for.
func (r *runResult) print(w *os.File) {
	mode := "end-to-end"
	if r.cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%d  passes=%d  %s\n", r.workload, r.cfg.seed, r.cfg.seconds, len(r.passes), mode)
	envJSON, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	r.printPasses(w)
	fmt.Fprintf(w, "%-40s %16s %-9s %s\n", "metric", "value", "unit", "samples")
	for _, d := range r.schema() {
		m := r.metrics[d.name]
		fmt.Fprintf(w, "%-40s %16.4f %-9s %d\n", d.name, m.value, d.unit, m.n)
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, msg := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", msg)
	}
	fmt.Fprintf(w, "%s\n", r.contractJSON())
}

// printPasses prints what the set-up and every timed pass measured — as
// measured, before the scaling to the nominal machine — with the reference
// kernels that ran after it and whether the run values use the pass, so
// that a run value can be traced back to its passes.
func (r *runResult) printPasses(w *os.File) {
	kept := map[int]bool{}
	for _, i := range r.kept {
		kept[i] = true
	}
	fmt.Fprintf(w, "machine speed %.4f of nominal (median reference walk %.2f ms, nominal %.2f ms)\n", r.speed, walkNominalMS/r.speed, walkNominalMS)
	fmt.Fprintf(w, "%-5s %8s %8s %6s %5s %16s %12s %16s %14s %12s\n", "pass", "spin_ms", "walk_ms", "steal", "kept",
		"ingest_mitems_s", "cpu_us_item", "query_p50_gm_us", "ack_p50_gm_us", "peak_rss_mb")
	fmt.Fprintf(w, "%-5s %8.2f %8.2f\n", "start", r.refs[0].spinMS, r.refs[0].walkMS)
	fmt.Fprintf(w, "%-5s %8.2f %8.2f %6s %5s   setup_s %.4f\n", "setup", r.refs[1].spinMS, r.refs[1].walkMS, "", "", r.setupS)
	for i := range r.passes {
		p, ref := &r.passes[i], r.refs[i+2]
		fmt.Fprintf(w, "%-5d %8.2f %8.2f %6d %5v %16.4f %12.4f %16.2f %14.2f %12.2f\n", i, ref.spinMS, ref.walkMS, p.steal, kept[i],
			p.ingestMitemsS(), p.cpuUSItem(), classGM(p.qry), classGM(p.ack), p.rssMB)
	}
}

// contractJSON renders the result line: exactly the keys correct,
// attempted, failed and metrics, every schema metric present.
func (r *runResult) contractJSON() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, d := range r.schema() {
		out.Metrics[d.name] = mv{r.metrics[d.name].value, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil { // a NaN or Inf value: a metric that was never measured
		var missing []string
		for _, d := range r.schema() {
			if _, ok := r.metrics[d.name]; !ok {
				missing = append(missing, d.name)
			}
		}
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "bench: cannot encode result (%v); unmeasured: %v\n", err, missing)
		os.Exit(1)
	}
	return b
}

// printSelfTimes prints the per-layer self time of a traced run.
func printSelfTimes(workload, path string, tr *tracer) {
	layers := tr.selfTimes()
	fmt.Printf("-- %s spans → %s\n%-36s %10s %14s %14s\n", workload, path, "span", "count", "total_ms", "self_ms")
	for _, n := range sortedLayers(layers) {
		lt := layers[n]
		fmt.Printf("%-36s %10d %14.2f %14.2f\n", n, lt.Count, lt.TotalUS/1e3, lt.SelfUS/1e3)
	}
}
