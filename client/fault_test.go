package client_test

// Connection-failure tests: a kill-switch TCP proxy sits between the client
// and a healthy server, so tests can sever every live connection at a
// chosen moment — mid-pipeline, between Add and Flush — while redials (which
// go through the proxy again) land on fresh upstream connections. These pin
// the client's failure contract:
//
//   - a Flush that dies on transport RETAINS its items and succeeds when
//     retried over a redialed connection (no silent loss);
//   - a deterministic server rejection DROPS the items (no infinite retry);
//   - pooled in-flight call handles complete exactly once under connection
//     churn: a dropped handle would deadlock its round trip (test timeout),
//     a double-completed one would cross-talk pooled calls (caught by -race
//     and by the unmatched-response guard).

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/client"
)

// killProxy forwards TCP connections to upstream and can sever every live
// proxied connection on demand. New connections accepted after killAll are
// forwarded normally, so a client redial self-heals through the proxy.
type killProxy struct {
	ln       net.Listener
	upstream string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// blackhole, while set, severs newly accepted connections immediately:
	// redials "succeed" at the TCP level but die on first use, keeping the
	// transport down across the client's self-healing attempts.
	blackhole atomic.Bool
}

func newKillProxy(t *testing.T, upstream string) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{ln: ln, upstream: upstream, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *killProxy) addr() string { return p.ln.Addr().String() }

func (p *killProxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.blackhole.Load() {
			down.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		p.conns[down] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go p.pipe(down, up)
		go p.pipe(up, down)
	}
}

func (p *killProxy) pipe(dst, src net.Conn) {
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// killAll severs every currently proxied connection, both directions.
// In-flight frames die with them; the upstream server stays healthy.
func (p *killProxy) killAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	clear(p.conns)
	p.mu.Unlock()
}

func (p *killProxy) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.killAll()
}

// TestBatchRetainsItemsAcrossTransportFailure pins the Flush failure
// contract end to end: a batch whose connection died before the frame could
// be delivered keeps its items, reports the transport error, and a retried
// Flush lands every item on the server exactly once.
func TestBatchRetainsItemsAcrossTransportFailure(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	p := newKillProxy(t, addr)
	cl, err := client.Dial(p.addr(), client.Options{Conns: 1, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Create(client.CountMin, "retained"); err != nil {
		t.Fatal(err)
	}
	b := cl.NewBatch(client.CountMin, "retained")
	const n = 50 // below BatchSize: nothing auto-flushes before the kill
	for i := 0; i < n; i++ {
		if err := b.Add(uint64(i % 4)); err != nil {
			t.Fatal(err)
		}
	}

	// Sever the pooled connection before Flush: the frame can never reach
	// the server, so the failed Flush must retain all n items. The blackhole
	// keeps the transport down if the client notices the dead connection
	// first and redials before Flush runs.
	p.blackhole.Store(true)
	p.killAll()
	ferr := b.Flush()
	p.blackhole.Store(false)
	if ferr == nil {
		// The kill can race the OS buffers such that the write "succeeds"
		// into a dead socket and the failure surfaces on the response read;
		// either way a nil error here means the ack arrived, which is
		// impossible across a severed proxy.
		t.Fatal("Flush succeeded across a severed connection")
	}
	if !strings.Contains(ferr.Error(), "retained") {
		t.Fatalf("transport-failed Flush did not report retention: %v", ferr)
	}
	if got := b.Len(); got != n {
		t.Fatalf("batch holds %d items after transport failure, want %d retained", got, n)
	}

	// Retry: the pool redials through the proxy onto the healthy server.
	// One retry may still fail if the dead conn is detected lazily.
	var retryErr error
	for attempt := 0; attempt < 3; attempt++ {
		if retryErr = b.Flush(); retryErr == nil {
			break
		}
	}
	if retryErr != nil {
		t.Fatalf("retried Flush never succeeded: %v", retryErr)
	}
	if b.Len() != 0 {
		t.Fatalf("batch holds %d items after successful retry", b.Len())
	}
	// Exactly-once for this sequence: the first frame died in the proxy, so
	// the retry is the only delivery. Single shard + acked batch means the
	// fold is allowed to lag by at most r; drain via the registry close in
	// cleanup is not needed since CountMinN reads acked state.
	inf, err := cl.Info(client.CountMin, "retained")
	if err != nil {
		t.Fatal(err)
	}
	total, err := cl.CountMinN("retained")
	if err != nil {
		t.Fatal(err)
	}
	if int(total) > n || int(total) < n-min(n, int(inf.Relaxation)) {
		t.Fatalf("server total %d outside [%d - S·r, %d] (S·r=%d): items lost or duplicated",
			total, n, n, inf.Relaxation)
	}
}

// TestBatchDropsOnDeterministicRejection pins the other half of the
// contract: a rejection that retrying can never clear empties the buffer
// and says so.
func TestBatchDropsOnDeterministicRejection(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Invalid name: rejected client-side before any frame is built.
	b := cl.NewBatch(client.Theta, "")
	b.Add(1)
	b.Add(2)
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("invalid-name Flush = %v, want dropped error", err)
	}
	if b.Len() != 0 {
		t.Fatalf("batch holds %d items after deterministic rejection, want 0", b.Len())
	}

	// Closed client: deterministic, drops.
	b2 := cl.NewBatch(client.Theta, "ok")
	b2.Add(1)
	cl.Close()
	if err := b2.Flush(); err == nil || !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Flush on closed client = %v, want ErrClosed", err)
	}
	if b2.Len() != 0 {
		t.Fatalf("batch holds %d items after close, want 0", b2.Len())
	}
}

// TestBatchResetDiscards pins Reset: retained items can be explicitly
// abandoned.
func TestBatchResetDiscards(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := cl.NewBatch(client.HLL, "reset")
	for i := 0; i < 10; i++ {
		b.Add(uint64(i))
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Reset", b.Len())
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush of reset batch: %v", err)
	}
}

// TestBatchChunksOversizedRetainedBuffer: a caller that kept Adding past a
// transport failure accumulates more than one batch frame of items; the
// recovering Flush must ship them in wire-legal chunks rather than one
// oversized frame the server would reject.
func TestBatchChunksOversizedRetainedBuffer(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	p := newKillProxy(t, addr)
	cl, err := client.Dial(p.addr(), client.Options{Conns: 1, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(client.CountMin, "chunked"); err != nil {
		t.Fatal(err)
	}

	b := cl.NewBatch(client.CountMin, "chunked")
	p.blackhole.Store(true)
	p.killAll()
	// Keep adding through the failures: every auto-flush fails on transport
	// (redials die instantly while the proxy blackholes) and retains, so the
	// buffer grows far past BatchSize.
	const n = 150
	sawFailure := false
	for i := 0; i < n; i++ {
		if err := b.Add(1); err != nil {
			sawFailure = true
		}
	}
	p.blackhole.Store(false)
	if !sawFailure {
		t.Fatal("no Add ever surfaced the transport failure")
	}
	if b.Len() != n {
		t.Fatalf("buffer holds %d items, want all %d retained", b.Len(), n)
	}
	var ferr error
	for attempt := 0; attempt < 3; attempt++ {
		if ferr = b.Flush(); ferr == nil {
			break
		}
	}
	if ferr != nil {
		t.Fatalf("recovering Flush failed: %v", ferr)
	}
	if b.Len() != 0 {
		t.Fatalf("buffer holds %d items after recovery", b.Len())
	}
	inf, err := cl.Info(client.CountMin, "chunked")
	if err != nil {
		t.Fatal(err)
	}
	total, err := cl.CountMinN("chunked")
	if err != nil {
		t.Fatal(err)
	}
	if int(total) > n || int(total) < n-min(n, int(inf.Relaxation)) {
		t.Fatalf("server total %d outside [%d - S·r, %d]: chunked recovery lost or duplicated items",
			total, n, n)
	}
}

// TestPipelinedCallsCompleteExactlyOnceUnderChurn hammers a small pool with
// pipelined requests while the proxy keeps severing every connection. Every
// in-flight pooled call handle must complete exactly once: a dropped handle
// deadlocks its goroutine (test timeout), a double-completed handle is
// reused concurrently by two round trips (a data race, caught under -race,
// or an unmatched-response failure). Acked batch items must survive on the
// server regardless of how many transport errors surrounded them.
func TestPipelinedCallsCompleteExactlyOnceUnderChurn(t *testing.T) {
	addr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	p := newKillProxy(t, addr)
	cl, err := client.Dial(p.addr(), client.Options{Conns: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var acked atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	const goroutines = 6
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := cl.NewBatch(client.CountMin, "churn")
			for i := 0; !stop.Load(); i++ {
				before := b.Len()
				if err := b.Add(uint64(g)); err != nil {
					// Transport failures retain; deterministic drops would
					// be a bug here (the name is valid, server healthy).
					if strings.Contains(err.Error(), "dropped") {
						t.Errorf("goroutine %d: batch dropped under pure transport churn: %v", g, err)
						return
					}
					continue
				}
				if after := b.Len(); after <= before {
					// A flush happened and fully succeeded: everything
					// buffered plus this item was acked.
					acked.Add(uint64(before + 1 - after))
				}
				if i%31 == 0 {
					cl.CountMinN("churn") // pipelined query mixed in; errors fine
				}
			}
			// Final drain so the acked counter reflects delivered items.
			for attempt := 0; attempt < 20 && b.Len() > 0; attempt++ {
				n := b.Len()
				if err := b.Flush(); err == nil {
					acked.Add(uint64(n))
				} else if rem := b.Len(); rem < n {
					acked.Add(uint64(n - rem))
				}
			}
		}(g)
	}

	// Churn: sever everything every few milliseconds for a while, then let
	// the pool heal.
	for k := 0; k < 25; k++ {
		time.Sleep(4 * time.Millisecond)
		p.killAll()
	}
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	var total uint64
	for attempt := 0; attempt < 5; attempt++ {
		if total, err = cl.CountMinN("churn"); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("final count query never recovered: %v", err)
	}
	// Acked items are never lost (allowing the merged-query staleness lag);
	// unacked retries mean the server may hold more, never fewer.
	inf, err := cl.Info(client.CountMin, "churn")
	if err != nil {
		t.Fatal(err)
	}
	floor := acked.Load()
	if relax := uint64(inf.Relaxation); floor > relax {
		floor -= relax
	} else {
		floor = 0
	}
	if total < floor {
		t.Fatalf("server holds %d items, %d were acked (floor %d with S·r=%d): acked items lost",
			total, acked.Load(), floor, inf.Relaxation)
	}
}
