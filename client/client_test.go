package client_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/server"
)

// startServer boots an in-process sketchd (server over a fresh registry)
// on loopback and returns its address; teardown rides the test.
func startServer(t *testing.T, cfg fastsketches.RegistryConfig) (string, *fastsketches.Registry) {
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
	return ln.Addr().String(), reg
}

func TestClientBasics(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	cl, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Batch auto-flushes at BatchSize and on Flush; acks cover every item.
	b := cl.NewBatch(client.Theta, "users")
	for i := 0; i < 1050; i++ {
		if err := b.Add(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() >= 100 {
		t.Fatalf("batch holds %d items, auto-flush at 100 never fired", b.Len())
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("batch holds %d items after Flush", b.Len())
	}

	// 1050 distinct keys is deep inside the eager window: the served
	// estimate is exact once the propagators catch up; allow the S·r lag.
	inf, err := cl.Info(client.Theta, "users")
	if err != nil {
		t.Fatal(err)
	}
	est, err := cl.ThetaEstimate("users")
	if err != nil {
		t.Fatal(err)
	}
	if est < float64(1050-int(inf.Relaxation)) || est > 1050 {
		t.Fatalf("estimate %.0f outside [1050 - S·r, 1050] (S·r=%d)", est, inf.Relaxation)
	}

	// Quantiles round trip.
	qb := cl.NewBatch(client.Quantiles, "lat")
	for i := 0; i < 2000; i++ {
		if err := qb.AddFloat(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := qb.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Quantile("lat", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rank("lat", 1000); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.QuantilesN("lat"); err != nil || n > 2000 {
		t.Fatalf("QuantilesN = %d (err %v)", n, err)
	}

	// Count-Min round trip.
	cb := cl.NewBatch(client.CountMin, "api")
	for i := 0; i < 900; i++ {
		if err := cb.Add(uint64(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cb.Flush(); err != nil {
		t.Fatal(err)
	}
	if cnt, err := cl.Count("api", 1); err != nil || cnt > 900 {
		t.Fatalf("Count = %d (err %v)", cnt, err)
	}

	// Enumeration, admin ops.
	names, err := cl.Names()
	if err != nil || len(names) != 3 {
		t.Fatalf("Names = %v (err %v)", names, err)
	}
	if err := cl.Resize(client.Theta, "users", 4); err != nil {
		t.Fatal(err)
	}
	if inf, err := cl.Info(client.Theta, "users"); err != nil || inf.Spec.Shards != 4 {
		t.Fatalf("Info after resize = %+v (err %v)", inf, err)
	}
	if err := cl.Apply(client.AllFamilies, "users", client.Spec{Pinned: true}); err != nil {
		t.Fatal(err)
	}
	if inf, err := cl.Info(client.Theta, "users"); err != nil || !inf.Spec.Pinned {
		t.Fatalf("Info after pinning = %+v (err %v)", inf, err)
	}
	if err := cl.Drop(client.CountMin, "api"); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.CountMinN("api"); err != nil || n != 0 {
		t.Fatalf("recreated countmin N = %d (err %v), want 0", n, err)
	}
}

func TestClientServerErrors(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Semantic errors come back as *client.Error and leave the connection
	// usable.
	var srvErr *client.Error
	if _, err := cl.Info(client.Theta, "absent"); !errors.As(err, &srvErr) {
		t.Fatalf("Info on absent sketch: %v, want *client.Error", err)
	}
	if _, err := cl.Quantile("absent-but-created", 2.0); err != nil {
		// phi outside [0,1] is the sketch's business, not a protocol error;
		// the call itself must still round-trip.
		t.Fatalf("quantile round-trip: %v", err)
	}
	if err := cl.Drop(client.HLL, "never-existed"); !errors.As(err, &srvErr) {
		t.Fatalf("Drop absent: %v, want *client.Error", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after server errors: %v", err)
	}

	// Client-side validation rejects invalid names without spending the
	// connection.
	if _, err := cl.ThetaEstimate(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// A closed client fails fast.
	cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping succeeded on closed client")
	}
}

// TestClientConcurrentPipelining drives many goroutines over a small pool:
// pipelined requests must demultiplex correctly (every goroutine sees its
// own monotonic counts).
func TestClientConcurrentPipelining(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 4})
	cl, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := cl.NewBatch(client.CountMin, "pipe")
			for i := 0; i < perG; i++ {
				if err := b.Add(uint64(g)); err != nil {
					t.Error(err)
					return
				}
				if i%97 == 0 {
					if _, err := cl.CountMinN("pipe"); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := b.Flush(); err != nil {
				t.Error(err)
				return
			}
			// Every flushed item is completed: this goroutine's key count
			// can lag only by the single-shard staleness bound r. Above,
			// Count-Min may overestimate (hash collisions with other keys,
			// ε·N_shard additive), but never past the total weight.
			inf, err := cl.Info(client.CountMin, "pipe")
			if err != nil {
				t.Error(err)
				return
			}
			cnt, err := cl.Count("pipe", uint64(g))
			if err != nil {
				t.Error(err)
				return
			}
			if cnt > goroutines*perG || cnt < perG-uint64(min(perG, int(inf.ShardRelaxation))) {
				t.Errorf("goroutine %d: count %d outside [%d - r, total] (r=%d)",
					g, cnt, perG, inf.ShardRelaxation)
			}
		}(g)
	}
	wg.Wait()
}

// TestClientReconnects pins the pool's self-healing: after the server
// restarts (all pooled connections dead), requests fail at most once per
// slot and then succeed on transparently redialed connections.
func TestClientReconnects(t *testing.T) {
	reg1, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	srv1 := server.New(reg1)
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ln1) }()

	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Kill the first server; its connections die under the client.
	srv1.Shutdown()
	<-done1
	reg1.Close()

	// Restart on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	reg2, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(reg2)
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	t.Cleanup(func() {
		srv2.Shutdown()
		<-done2
		reg2.Close()
	})

	// Each pool slot may fail once (the buffered dead conn); after that
	// every request must succeed on redialed connections.
	failures := 0
	for i := 0; i < 10; i++ {
		if err := cl.Ping(); err != nil {
			failures++
			continue
		}
	}
	if failures > 2 {
		t.Fatalf("%d failures after restart; want ≤ one per pool slot (2)", failures)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client never recovered: %v", err)
	}
}

// TestClientResizeBounds pins the shard-count validation: out-of-range
// values travel faithfully (a negative count does not wrap to a huge one),
// the server's Spec validation rejects them as a typed *Error carrying
// ErrConfig's message, and the connection stays intact. Resize to 0 is the
// Spec's "leave S as it is".
func TestClientResizeBounds(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rejected := func(what string, err error) {
		t.Helper()
		var se *client.Error
		if !errors.As(err, &se) || !strings.Contains(se.Msg, fastsketches.ErrConfig.Error()) {
			t.Fatalf("%s: %v, want a server-side ErrConfig", what, err)
		}
	}
	rejected("negative resize", cl.Resize(client.Theta, "x", -1))
	rejected("absurd shard count", cl.Resize(client.Theta, "x", 1<<20))
	if names, err := cl.Names(); err != nil || len(names) != 0 {
		t.Fatalf("rejected Specs created %v (err %v)", names, err)
	}
	if err := cl.Resize(client.Theta, "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}
