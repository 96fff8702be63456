package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for sketchtool: with
// SKETCHTOOL_MAIN=1 it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SKETCHTOOL_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sketchtool runs the command with stdin and returns its stdout.
func sketchtool(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SKETCHTOOL_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("sketchtool %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// keys returns the lines lo..hi-1, one key per line.
func keys(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "key-%d\n", i)
	}
	return b.String()
}

// TestSetOperations builds Θ sketches from stdin into files and combines
// them. Every sketch stays in exact mode at its own k, so each answer is
// exact: a merge below the inputs' k would sample and miss it.
func TestSetOperations(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.sk"), filepath.Join(dir, "b.sk")
	for _, lgk := range []string{"12", "14"} {
		t.Run("lgk"+lgk, func(t *testing.T) {
			// A = [0, 3000), B = [2000, 5000) at lgk 12; ×2 at lgk 14.
			n := 1000
			if lgk == "14" {
				n = 2000
			}
			sketchtool(t, keys(0, 3*n), "create", "-lgk", lgk, "-o", a)
			sketchtool(t, keys(2*n, 5*n), "create", "-lgk", lgk, "-o", b)
			for _, c := range []struct {
				args []string
				want string
			}{
				{[]string{"merge", a, b}, fmt.Sprintf("union_estimate\t%d\n", 5*n)},
				{[]string{"inter", a, b}, fmt.Sprintf("intersection_estimate\t%d\n", n)},
				{[]string{"anotb", a, b}, fmt.Sprintf("difference_estimate\t%d\n", 2*n)},
			} {
				if got := sketchtool(t, "", c.args...); got != c.want {
					t.Errorf("%s = %q, want %q", c.args[0], got, c.want)
				}
			}
		})
	}
}

// TestStreamCommands: count, hll and quants drain one concurrent sketch
// before answering, so small streams come back exact (HLL up to its own
// estimation error).
func TestStreamCommands(t *testing.T) {
	in := keys(0, 500) + keys(0, 500) // duplicates don't count
	if got := sketchtool(t, in, "count"); !strings.HasPrefix(got, "estimate\t500\n") {
		t.Errorf("count = %q, want estimate 500", got)
	}
	var est float64
	got := sketchtool(t, in, "hll")
	if fmt.Sscanf(got, "estimate\t%g", &est); est < 480 || est > 520 {
		t.Errorf("hll = %q, want estimate 500 ± 4%%", got)
	}
	var nums strings.Builder
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&nums, "%d\n", i)
	}
	want := "n\t100\nmin\t1\nmax\t100\nq0.5\t50\n"
	if got := sketchtool(t, nums.String()+"not-a-number\n", "quants", "-q", "0.5"); got != want {
		t.Errorf("quants = %q, want %q", got, want)
	}
}
