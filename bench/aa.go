package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison reads: the
// bound and direction of every end-to-end metric.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// contractLine is the result line of one run, as the driver reads it.
type contractLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process, as the driver does, and
// parses the last line of its output.
func runChild(cfg config, workload string, seed uint64) (*contractLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", "0", "-root", cfg.root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &line, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method) — the spread the driver computes.
func quartileSpread(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	q := func(p float64) float64 {
		// exclusive method: position p·(n+1) on the 1-based sorted sample
		pos := math.Min(math.Max(p*(n+1), 1), n)
		return percentile(xs, (pos-1)/(n-1))
	}
	return (q(0.75) - q(0.25)) / median(xs)
}

// worseBy is the share of a by which b is worse (negative: better), for a
// metric whose better direction is "lower" or "higher".
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// gapExceeds reports whether an A/A gap is beyond the bound. The two sets
// run the same code, so a gap is noise whichever set it favours.
func gapExceeds(worse, bound float64) bool { return math.Abs(worse) > bound }

// runAA runs the whole suite as two interleaved sets of n runs of the same
// code (run i of both sets uses seed+i) and prints, per workload and
// end-to-end metric, both medians, the share by which set B is worse than
// set A (negative: better), each set's quartile spread and the bound.
// It returns 1 when a gap exceeds its bound in either direction or a run
// failed.
func runAA(cfg config, n int) int {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[s][w] = map[string][]float64{}
		}
	}
	code := 0
	for i := 0; i < n; i++ {
		for s := range values {
			for _, w := range workloads {
				line, err := runChild(cfg, w, cfg.seed+uint64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !line.Correct {
					fmt.Printf("run %d set %c %s: %d of %d operations failed\n", i, 'A'+s, w, line.Failed, line.Attempted)
					code = 1
				}
				for name, m := range line.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s done\n", i+1, n, 'A'+s, w)
			}
		}
	}
	fmt.Printf("A/A: two interleaved sets of %d runs, seeds %d..%d, %d s each\n", n, cfg.seed, cfg.seed+uint64(n)-1, cfg.seconds)
	fmt.Printf("%-14s %-18s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			ma, mb := median(a), median(b)
			worse := worseBy(ma, mb, m.Better)
			flag := ""
			if gapExceeds(worse, m.Bound) {
				flag = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				w, m.Name, ma, mb, 100*worse, 100*quartileSpread(a), 100*quartileSpread(b), 100*m.Bound, flag)
		}
	}
	return code
}
