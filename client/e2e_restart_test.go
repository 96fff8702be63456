package client_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"fastsketches/client"
)

var servingRe = regexp.MustCompile(`serving on (\S+) `)

// buildSketchd returns the sketchd binary to crash-test: $SKETCHD_BIN if the
// CI e2e job already built one, otherwise a fresh `go build` into the test's
// temp dir.
func buildSketchd(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("SKETCHD_BIN"); bin != "" {
		return bin
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain and no SKETCHD_BIN; skipping restart harness")
	}
	bin := filepath.Join(t.TempDir(), "sketchd")
	cmd := exec.Command("go", "build", "-o", bin, "fastsketches/cmd/sketchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build sketchd: %v\n%s", err, out)
	}
	return bin
}

// startSketchd boots the real binary on an ephemeral port with periodic
// checkpointing and warm-start wired to path, and parses the served address
// from the daemon's own log line. The stderr drain keeps running for the
// process's lifetime so the daemon never blocks on a full pipe.
func startSketchd(t *testing.T, bin, path string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-shards", "2", "-writers", "2",
		"-checkpoint", path, "-checkpoint-every", "150ms",
		"-restore", path,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrC <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrC:
		return cmd, addr
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("sketchd never reported a serving address")
		return nil, ""
	}
}

// TestE2ERestart is the crash/restart harness: it SIGKILLs a real sketchd
// binary mid-ingest and asserts the documented recovery bound on the state a
// warm-started replacement serves.
//
// The bound: a restored daemon holds at least the last durable checkpoint
// (here pinned exactly at N1 by an explicit quiesce + client Checkpoint) and
// at most everything the client ever attempted to send — a checkpoint is a
// fold of completed updates, so recovery can neither lose acknowledged
// pre-checkpoint state nor invent weight. Updates after the last periodic
// checkpoint (≤ checkpoint interval + S·r relaxation worth) are the
// documented loss window; SIGKILL mid-write must never corrupt the file
// (atomic temp + rename), which restoring exercises.
func TestE2ERestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real daemons")
	}
	bin := buildSketchd(t)
	ckpt := filepath.Join(t.TempDir(), "sketchd.fsnp")

	// ---- Boot 1: cold start (restore of a missing file is not an error).
	daemon, addr := startSketchd(t, bin, ckpt)
	cl, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Wave 1: ingest, quiesce (exact drain), checkpoint durably. The file
	// now holds exactly n1 for the Count-Min total and all wave-1 HLL keys.
	const n1 = 20_000
	b := cl.NewBatch(client.CountMin, "r.cm")
	bh := cl.NewBatch(client.HLL, "r.hll")
	for i := 0; i < n1; i++ {
		if err := b.Add(uint64(i % 509)); err != nil {
			t.Fatal(err)
		}
		if err := bh.Add(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bh.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []client.Family{client.CountMin, client.HLL} {
		name := map[client.Family]string{client.CountMin: "r.cm", client.HLL: "r.hll"}[fam]
		if err := cl.Resize(fam, name, 3); err != nil {
			t.Fatal(err)
		}
	}
	hllBefore, err := cl.HLLEstimate("r.hll")
	if err != nil {
		t.Fatal(err)
	}
	// The Spec rides the checkpoint too: pin the HLL tenant over the wire,
	// and give a third tenant an idle-TTL override and a view that never
	// refreshes on its own (an hour between refreshes).
	if err := cl.Apply(client.HLL, "r.hll", client.Spec{Pinned: true}); err != nil {
		t.Fatal(err)
	}
	view := client.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1}
	cfgSpec := client.Spec{IdleTTL: 42 * time.Minute, View: &view}
	if err := cl.Apply(client.Theta, "r.cfg", cfgSpec); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Wave 2: keep ingesting in small acked batches, then SIGKILL the
	// daemon mid-stream — some batches acked, likely one in flight, the
	// periodic checkpointer possibly mid-write. attempted2 upper-bounds
	// what the dead daemon could ever have absorbed.
	attempted2 := 0
	killAfter := time.Now().Add(400 * time.Millisecond) // spans ≥2 periodic checkpoints
	for time.Now().Before(killAfter) {
		wb := cl.NewBatch(client.CountMin, "r.cm")
		for i := 0; i < 200; i++ {
			attempted2++
			if err := wb.Add(uint64(attempted2 % 509)); err != nil {
				break // daemon may already be gone
			}
		}
		if err := wb.Flush(); err != nil {
			break
		}
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()
	cl.Close()

	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint file survived the crash: %v", err)
	}

	// ---- Boot 2: warm start from the crash-surviving file.
	daemon2, addr2 := startSketchd(t, bin, ckpt)
	defer func() {
		_ = daemon2.Process.Kill()
		_ = daemon2.Wait()
	}()
	cl2, err := client.Dial(addr2, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// Quiesce so the served totals are exact, then assert the bound:
	// floor (wave 1, durably checkpointed) ≤ recovered ≤ everything sent.
	if err := cl2.Resize(client.CountMin, "r.cm", 4); err != nil {
		t.Fatal(err)
	}
	n, err := cl2.CountMinN("r.cm")
	if err != nil {
		t.Fatal(err)
	}
	if n < n1 {
		t.Errorf("recovered Count-Min N = %d below the durable floor %d: checkpointed state lost", n, n1)
	}
	if max := uint64(n1 + attempted2); n > max {
		t.Errorf("recovered Count-Min N = %d above everything ever sent (%d): recovery invented weight", n, max)
	}

	// The HLL sketch was untouched by wave 2, quiesced before the explicit
	// checkpoint, and HLL registers travel exactly — so the estimate the
	// restored daemon serves is bit-identical to the pre-crash one.
	hllAfter, err := cl2.HLLEstimate("r.hll")
	if err != nil {
		t.Fatal(err)
	}
	if hllAfter != hllBefore {
		t.Errorf("restored HLL estimate %v != pre-crash %v", hllAfter, hllBefore)
	}

	// Every declared setting came back in the Spec in force.
	if inf, err := cl2.Info(client.HLL, "r.hll"); err != nil || !inf.Spec.Pinned {
		t.Errorf("restored r.hll Spec %+v (err %v), want pinned", inf.Spec, err)
	}
	inf, err := cl2.Info(client.Theta, "r.cfg")
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.Spec; got.IdleTTL != cfgSpec.IdleTTL || got.View == nil || *got.View != view {
		t.Errorf("restored r.cfg Spec %+v (view %+v), want IdleTTL %v and view %+v",
			got, got.View, cfgSpec.IdleTTL, view)
	}

	// Restored state must keep absorbing writes.
	wb := cl2.NewBatch(client.CountMin, "r.cm")
	for i := 0; i < 1000; i++ {
		if err := wb.Add(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Resize(client.CountMin, "r.cm", 2); err != nil {
		t.Fatal(err)
	}
	n2, err := cl2.CountMinN("r.cm")
	if err != nil {
		t.Fatal(err)
	}
	if want := n + 1000; n2 != want {
		t.Errorf("post-restore ingest: N = %d, want exactly %d", n2, want)
	}
}
