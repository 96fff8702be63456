package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/server"
	"fastsketches/internal/snapshot"
	"fastsketches/internal/wire"
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

// run runs sketchtool with stdin and returns its stdout, its stderr and
// how it exited.
func run(stdin string, args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SKETCHTOOL_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	return string(out), stderr.String(), err
}

// sketchtool runs the command with stdin and returns its stdout.
func sketchtool(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	out, stderr, err := run(stdin, args...)
	if err != nil {
		t.Fatalf("sketchtool %v: %v\n%s", args, err, stderr)
	}
	return out
}

// sketchtoolFails runs a command that must report an error — exit status
// 1, where a panic exits 2 — and returns its stderr.
func sketchtoolFails(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	_, stderr, err := run(stdin, args...)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.HasPrefix(stderr, "sketchtool: ") {
		t.Fatalf("sketchtool %v: %v, want exit status 1 with an error\n%s", args, err, stderr)
	}
	return stderr
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

// TestOverlongLineFails: a line over the scanner's 1 MiB limit fails the
// command instead of ending the stream early with an answer over the lines
// before it.
func TestOverlongLineFails(t *testing.T) {
	in := "a\nb\n" + strings.Repeat("x", 2_000_000) + "\nc\nd\ne\n"
	out := filepath.Join(t.TempDir(), "a.sk")
	for _, args := range [][]string{{"count"}, {"hll"}, {"quants"}, {"create", "-o", out}} {
		if stderr := sketchtoolFails(t, in, args...); !strings.Contains(stderr, "token too long") {
			t.Errorf("%s: stderr %q, want the scanner's error", args[0], stderr)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("create wrote %s from a truncated stream (stat: %v)", out, err)
	}
}

// startServer serves a fresh one-shard registry on loopback; teardown
// rides the test.
func startServer(t *testing.T) (*client.Client, *fastsketches.Registry) {
	t.Helper()
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, ThetaLgK: 12})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Shutdown()
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		reg.Close()
	})
	return cl, reg
}

// TestFilesInteropWithDaemon: a sketch file is the body of the daemon's
// snapshot op, so a file restores into a served sketch and a served
// sketch's snapshot is a set-operation input, with exact answers in exact
// mode.
func TestFilesInteropWithDaemon(t *testing.T) {
	cl, reg := startServer(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.sk"), filepath.Join(dir, "b.sk")

	// A = [0, 3000) from a file, restored into a served sketch.
	if got := sketchtool(t, keys(0, 3000), "create", "-o", a); !strings.HasPrefix(got, "estimate\t3000\n") {
		t.Fatalf("create = %q", got)
	}
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(client.Theta, "restored", data); err != nil {
		t.Fatal(err)
	}
	if est, err := cl.ThetaEstimate("restored"); err != nil || est != 3000 {
		t.Fatalf("served estimate of a restored file = %v (err %v), want 3000", est, err)
	}

	// B = [2000, 5000) ingested by the daemon, snapshotted into a file. The
	// resize drains every completed update, so the snapshot is exact.
	h, _ := reg.OpenTheta("served", fastsketches.Spec{})
	for i := 2000; i < 5000; i++ {
		h.Sketch().UpdateString(0, fmt.Sprintf("key-%d", i))
	}
	if err := h.Resize(2); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(client.Theta, "served")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"merge", a, b}, "union_estimate\t5000\n"},
		{[]string{"inter", a, b}, "intersection_estimate\t1000\n"},
		{[]string{"anotb", a, b}, "difference_estimate\t2000\n"},
	} {
		if got := sketchtool(t, "", c.args...); got != c.want {
			t.Errorf("%s = %q, want %q", c.args[0], got, c.want)
		}
	}
}

// TestHostileFilesFail: a file sketchtool did not write — the removed
// standalone format, another family's record, a body whose lgK no union
// can take — is an error, never a panic or a misread. So is a create
// -lgk no sketch can take.
func TestHostileFilesFail(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sk")
	if stderr := sketchtoolFails(t, keys(0, 100), "create", "-lgk", "30", "-o", good); !strings.Contains(stderr, "outside [2,26]") {
		t.Errorf("create -lgk 30: stderr %q", stderr)
	}
	sketchtool(t, keys(0, 100), "create", "-o", good)

	// The standalone format sketchtool wrote before its files were snapshot
	// records: magic, version 1, QuickSelect variant, lgK 12, seed, Θ and
	// no hashes.
	old := binary.LittleEndian.AppendUint32(nil, 0x7E7A17E7)
	old = append(old, 1, 2)
	old = binary.LittleEndian.AppendUint16(old, 12)
	old = binary.LittleEndian.AppendUint64(old, fastsketches.DefaultSeed)
	old = binary.LittleEndian.AppendUint64(old, math.MaxUint64)
	old = binary.LittleEndian.AppendUint32(old, 0)

	record := func(fam wire.Family, blob []byte) []byte {
		rec := snapshot.Record{Family: fam, Name: []byte("x")}
		data, m := snapshot.BeginPortable(nil, &rec)
		return snapshot.EndRecord(append(data, blob...), m)
	}
	hll := fastsketches.NewHLLSketch(12, 0)
	lgK63 := append([]byte{63}, make([]byte, 20)...)

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"old format", old, snapshot.ErrVersion.Error()},
		{"hll record", record(wire.FamilyHLL, hll.ExportTo(nil)), "not theta"},
		{"lgK 63", record(wire.FamilyTheta, lgK63), "lgK outside [2,26]"},
	} {
		bad := filepath.Join(dir, c.name+".sk")
		if err := os.WriteFile(bad, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if stderr := sketchtoolFails(t, "", "merge", good, bad); !strings.Contains(stderr, c.want) {
			t.Errorf("%s: stderr %q, want %q", c.name, stderr, c.want)
		}
	}
}
