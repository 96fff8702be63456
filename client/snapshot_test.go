package client_test

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/server"
)

// startServerFull is startServer plus the server handle, for tests that
// wire admin hooks (SetCheckpoint) onto the running server.
func startServerFull(t *testing.T, cfg fastsketches.RegistryConfig) (string, *fastsketches.Registry, *server.Server) {
	t.Helper()
	reg, err := fastsketches.NewRegistry(cfg)
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
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		reg.Close()
	})
	return ln.Addr().String(), reg, srv
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{Conns: 1, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func ingest(t *testing.T, cl *client.Client, fam client.Family, name string, lo, hi uint64) {
	t.Helper()
	b := cl.NewBatch(fam, name)
	for i := lo; i < hi; i++ {
		if err := b.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

// quiesce resizes the sketch to synchronously drain writer buffers, so the
// served value is exact (no relaxation residue) before snapshots compare.
func quiesce(t *testing.T, cl *client.Client, fam client.Family, name string) {
	t.Helper()
	inf, err := cl.Info(fam, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Resize(fam, name, int(inf.Spec.Shards)+1); err != nil {
		t.Fatal(err)
	}
}

// TestClientSnapshotRestore round-trips a snapshot between two daemons: pull
// a blob from A, push it into B, and compare the exact post-quiesce answers.
func TestClientSnapshotRestore(t *testing.T) {
	addrA, _, _ := startServerFull(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	addrB, _, _ := startServerFull(t, fastsketches.RegistryConfig{Shards: 3, Writers: 1})
	a, b := dial(t, addrA), dial(t, addrB)

	const n = 4000
	ingest(t, a, client.HLL, "xfer", 0, n)
	quiesce(t, a, client.HLL, "xfer")
	want, err := a.HLLEstimate("xfer")
	if err != nil {
		t.Fatal(err)
	}

	snap, err := a.Snapshot(client.HLL, "xfer")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot blob")
	}

	// Restore creates the sketch on B; registers travel exactly, so the
	// estimate is bit-identical to A's.
	if err := b.Restore(client.HLL, "xfer", snap); err != nil {
		t.Fatal(err)
	}
	got, err := b.HLLEstimate("xfer")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored estimate %v, want %v", got, want)
	}

	// The restore folded contents only: B keeps its own shard count.
	inf, err := b.Info(client.HLL, "xfer")
	if err != nil {
		t.Fatal(err)
	}
	if inf.Spec.Shards != 3 {
		t.Fatalf("restored sketch has %d shards, want B's configured 3", inf.Spec.Shards)
	}

	// Restoring the same blob twice is a union no-op for HLL.
	if err := b.Restore(client.HLL, "xfer", snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.HLLEstimate("xfer"); got != want {
		t.Fatalf("double restore changed estimate to %v, want %v", got, want)
	}
}

// TestClientSnapshotErrors pins the error surface of the snapshot ops.
func TestClientSnapshotErrors(t *testing.T) {
	addr, _, _ := startServerFull(t, fastsketches.RegistryConfig{})
	cl := dial(t, addr)

	var srvErr *client.Error

	// Snapshot never creates: an absent name is an error, not an implicit
	// empty sketch (typo protection for operators).
	if _, err := cl.Snapshot(client.Theta, "no-such"); !errors.As(err, &srvErr) {
		t.Fatalf("Snapshot absent: %v, want *client.Error", err)
	}

	// A snapshot blob restores only into its recorded family.
	ingest(t, cl, client.Theta, "fam", 0, 100)
	snap, err := cl.Snapshot(client.Theta, "fam")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(client.HLL, "fam", snap); !errors.As(err, &srvErr) {
		t.Fatalf("cross-family restore: %v, want *client.Error", err)
	}

	// Garbage blobs are rejected server-side with the codec's error.
	if err := cl.Restore(client.Theta, "fam", []byte("not a snapshot")); !errors.As(err, &srvErr) {
		t.Fatalf("garbage restore: %v, want *client.Error", err)
	}

	// Checkpoint on a daemon with no checkpoint path configured.
	if err := cl.Checkpoint(); !errors.As(err, &srvErr) {
		t.Fatalf("unconfigured Checkpoint: %v, want *client.Error", err)
	}

	// A merge from an unreachable peer fails at the client's dial of the
	// peer, before this daemon sees any request.
	if peer, err := client.Dial("127.0.0.1:1", client.Options{Conns: 1}); err == nil {
		peer.Close()
		t.Fatal("dialing an unreachable peer succeeded")
	}

	// The connection survives every error above.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after snapshot errors: %v", err)
	}
}

// TestClientCheckpointConfigured wires a registry checkpoint file onto the
// server and verifies the client-triggered checkpoint lands on disk and
// restores.
func TestClientCheckpointConfigured(t *testing.T) {
	addr, reg, srv := startServerFull(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	path := filepath.Join(t.TempDir(), "ckpt.fsnp")
	srv.SetCheckpoint(func() error { return reg.CheckpointFile(path) })
	cl := dial(t, addr)

	const n = 3000
	ingest(t, cl, client.CountMin, "hits", 0, n)
	quiesce(t, cl, client.CountMin, "hits")
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing after Checkpoint: %v", err)
	}

	fresh, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	freshH, err := fresh.OpenCountMin("hits", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := freshH.Sketch().N(); got != n {
		t.Fatalf("restored registry CountMin N = %d, want %d", got, n)
	}
}

// TestClientMergeRemote merges daemon A's sketch into B's with two client
// calls, Snapshot on A then Restore on B: the union of two disjoint key
// ranges must count every key once.
func TestClientMergeRemote(t *testing.T) {
	addrA, _, _ := startServerFull(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	addrB, _, _ := startServerFull(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	a, b := dial(t, addrA), dial(t, addrB)

	const half = 2500
	ingest(t, a, client.CountMin, "m", 0, half)
	ingest(t, b, client.CountMin, "m", half, 2*half)
	quiesce(t, a, client.CountMin, "m")
	quiesce(t, b, client.CountMin, "m")

	snap, err := a.Snapshot(client.CountMin, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(client.CountMin, "m", snap); err != nil {
		t.Fatal(err)
	}
	if got, err := b.CountMinN("m"); err != nil || got != 2*half {
		t.Fatalf("merged N = %d (err %v), want %d", got, err, 2*half)
	}
	// A is read-only in the exchange.
	if got, err := a.CountMinN("m"); err != nil || got != half {
		t.Fatalf("peer N = %d (err %v), want untouched %d", got, err, half)
	}
}
