package server

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/autoscale"
	"fastsketches/internal/shard"
	"fastsketches/internal/wire"
)

// startServer boots a server over a fresh registry on a loopback listener
// and tears both down with the test.
func startServer(t *testing.T, cfg fastsketches.RegistryConfig) (*Server, *fastsketches.Registry, string) {
	t.Helper()
	reg, err := fastsketches.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		reg.Close()
	})
	return srv, reg, ln.Addr().String()
}

// testConn is a raw wire-level client for protocol tests.
type testConn struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
	id  uint32
}

func dialT(t *testing.T, addr string) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &testConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// roundTrip writes one pre-encoded request frame and reads one response.
func (c *testConn) roundTrip(frame []byte) (status byte, body []byte) {
	c.t.Helper()
	if _, err := c.nc.Write(frame); err != nil {
		c.t.Fatal(err)
	}
	payload, err := wire.ReadFrame(c.br, &c.buf)
	if err != nil {
		c.t.Fatal(err)
	}
	status, _, body, err = wire.ParseResponse(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return status, body
}

func (c *testConn) mustOK(frame []byte) []byte {
	c.t.Helper()
	status, body := c.roundTrip(frame)
	if status != wire.StatusOK {
		c.t.Fatalf("request failed: %s", body)
	}
	return body
}

func (c *testConn) nextID() uint32 { c.id++; return c.id }

func TestServeBasicOps(t *testing.T) {
	_, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	c := dialT(t, addr)

	c.mustOK(wire.AppendPing(nil, c.nextID()))
	c.mustOK(wire.AppendApply(nil, c.nextID(), wire.FamilyTheta, "users", &wire.Spec{}))

	// Batched ingest: 10k distinct keys, acked in full.
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	body := c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyTheta, "users", keys))
	if got := binary.LittleEndian.Uint32(body); got != uint32(len(keys)) {
		t.Fatalf("ack = %d, want %d", got, len(keys))
	}

	// Merged estimate over the served sketch (eager-exactness not assumed;
	// the S·r window bounds what a live query may miss).
	body = c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyTheta, wire.QueryEstimate, "users", 0))
	est := math.Float64frombits(binary.LittleEndian.Uint64(body))
	if est < 0.5*float64(len(keys)) || est > 1.5*float64(len(keys)) {
		t.Fatalf("estimate %.0f wildly off %d", est, len(keys))
	}

	// Count-Min ingest + per-key count + total weight.
	cm := make([]uint64, 3000)
	for i := range cm {
		cm[i] = uint64(i % 3)
	}
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "api", cm))
	body = c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyCountMin, wire.QueryN, "api", 0))
	if got := binary.LittleEndian.Uint64(body); got > 3000 {
		t.Fatalf("countmin N = %d > ingested 3000", got)
	}
	c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyCountMin, wire.QueryCount, "api", 1))

	// Quantiles ingest + quantile/rank/n.
	vals := make([]uint64, 4000)
	for i := range vals {
		vals[i] = math.Float64bits(float64(i))
	}
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyQuantiles, "lat", vals))
	c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyQuantiles, wire.QueryQuantile, "lat", math.Float64bits(0.5)))
	c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyQuantiles, wire.QueryRank, "lat", math.Float64bits(2000)))
	c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyQuantiles, wire.QueryN, "lat", 0))

	// Enumeration + metadata.
	names, err := wire.ParseNames(c.mustOK(wire.AppendNamesReq(nil, c.nextID())))
	if err != nil || len(names) != 3 {
		t.Fatalf("names = %v (err %v), want 3 entries", names, err)
	}
	inf, err := wire.ParseInfo(c.mustOK(wire.AppendInfo(nil, c.nextID(), wire.FamilyTheta, "users")))
	if err != nil || inf.Spec.Shards != 2 || inf.Writers != 2 {
		t.Fatalf("info = %+v (err %v), want S=2 W=2", inf, err)
	}

	// Live resize via OpApply, visible in Info.
	c.mustOK(wire.AppendApply(nil, c.nextID(), wire.FamilyTheta, "users", &wire.Spec{Shards: 4}))
	inf, err = wire.ParseInfo(c.mustOK(wire.AppendInfo(nil, c.nextID(), wire.FamilyTheta, "users")))
	if err != nil || inf.Spec.Shards != 4 {
		t.Fatalf("info after resize = %+v (err %v), want S=4", inf, err)
	}

	// Autoscale attaches to the named sketches, pinning with it.
	policy := autoscale.Policy{MinShards: 2, MaxShards: 8, HighWater: 1e6, LowWater: 1e3, SampleEvery: time.Hour}
	c.mustOK(wire.AppendApply(nil, c.nextID(), 0, "users", &wire.Spec{Autoscale: &policy, Pinned: true}))
	inf, err = wire.ParseInfo(c.mustOK(wire.AppendInfo(nil, c.nextID(), wire.FamilyTheta, "users")))
	if want, _ := policy.Normalise(); err != nil || !inf.Spec.Pinned || inf.Spec.Autoscale == nil ||
		inf.Spec.Autoscale.Cooldown != want.Cooldown || inf.Spec.Autoscale.MaxShards != 8 {
		t.Fatalf("info after autoscale = %+v (err %v), want pinned with the normalised policy", inf.Spec, err)
	}

	// Errors: unsupported query kind, unknown sketch metadata, drop of an
	// absent sketch — all answered, connection stays usable.
	if status, _ := c.roundTrip(wire.AppendQuery(nil, c.nextID(), wire.FamilyTheta, wire.QueryQuantile, "users", 1)); status != wire.StatusError {
		t.Fatal("quantile on theta should fail")
	}
	if status, _ := c.roundTrip(wire.AppendInfo(nil, c.nextID(), wire.FamilyHLL, "absent")); status != wire.StatusError {
		t.Fatal("info on absent sketch should fail")
	}
	if status, _ := c.roundTrip(wire.AppendDrop(nil, c.nextID(), wire.FamilyHLL, "absent")); status != wire.StatusError {
		t.Fatal("drop of absent sketch should fail")
	}

	// Drop frees the name; the recreated sketch starts empty.
	c.mustOK(wire.AppendDrop(nil, c.nextID(), wire.FamilyCountMin, "api"))
	body = c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyCountMin, wire.QueryN, "api", 0))
	if got := binary.LittleEndian.Uint64(body); got != 0 {
		t.Fatalf("recreated countmin N = %d, want 0", got)
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))
}

// TestPipelinedRequests sends a burst of frames before reading any
// response and checks all come back in order — the per-connection
// pipelining contract.
func TestPipelinedRequests(t *testing.T) {
	_, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	c := dialT(t, addr)

	const burst = 64
	var frames []byte
	for i := 0; i < burst; i++ {
		if i%2 == 0 {
			frames = wire.AppendBatch(frames, uint32(i), wire.FamilyTheta, "p", []uint64{uint64(i)})
		} else {
			frames = wire.AppendQuery(frames, uint32(i), wire.FamilyTheta, wire.QueryEstimate, "p", 0)
		}
	}
	if _, err := c.nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		payload, err := wire.ReadFrame(c.br, &c.buf)
		if err != nil {
			t.Fatal(err)
		}
		status, id, _, err := wire.ParseResponse(payload)
		if err != nil || status != wire.StatusOK {
			t.Fatalf("response %d: status=%d err=%v", i, status, err)
		}
		if id != uint32(i) {
			t.Fatalf("response order broken: got id %d at position %d", id, i)
		}
	}
}

// TestMalformedFramesNoPanic drives protocol garbage at a live server:
// every case must produce an error response or a closed connection — never
// a panic — and the server must keep serving fresh connections.
func TestMalformedFramesNoPanic(t *testing.T) {
	_, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})

	cases := [][]byte{
		// Oversized length prefix.
		binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1),
		// Unknown op.
		append(binary.LittleEndian.AppendUint32(nil, 5), 0xEE, 1, 0, 0, 0),
		// Truncated batch body.
		func() []byte {
			f := wire.AppendBatch(nil, 1, wire.FamilyTheta, "x", []uint64{1, 2, 3})
			f = f[:len(f)-5]
			binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}(),
		// Bad family.
		append(binary.LittleEndian.AppendUint32(nil, 8), byte(wire.OpApply), 1, 0, 0, 0, 0x7F, 1, 'x'),
		// Zero-length payload.
		binary.LittleEndian.AppendUint32(nil, 0),
	}
	for i, raw := range cases {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(raw); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// The server either answers with an error frame or just closes;
		// both are fine, panicking or hanging is not.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var buf []byte
		br := bufio.NewReader(nc)
		if payload, err := wire.ReadFrame(br, &buf); err == nil {
			if status, _, _, perr := wire.ParseResponse(payload); perr != nil || status != wire.StatusError {
				t.Fatalf("case %d: got status %d (perr %v), want error response", i, status, perr)
			}
		}
		nc.Close()
	}

	// The server survived: a fresh connection serves normally.
	c := dialT(t, addr)
	c.mustOK(wire.AppendPing(nil, 1))
}

// TestResizeUnderFire keeps batched ingest running from several
// connections while another connection walks the shard count up and down —
// the live-resharding path driven over the wire. Every batch must ack in
// full and the final total weight must cover every acked item (Count-Min
// is exact on N once drained by Close in cleanup; here we bound with the
// live staleness window).
func TestResizeUnderFire(t *testing.T) {
	_, reg, addr := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})

	const conns = 3
	const batches = 40
	const batchItems = 500
	var acked atomic.Int64
	var wg sync.WaitGroup
	stopResize := make(chan struct{})

	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			var buf, frame []byte
			items := make([]uint64, batchItems)
			for b := 0; b < batches; b++ {
				for i := range items {
					items[i] = uint64(g)<<40 | uint64(b*batchItems+i)
				}
				frame = wire.AppendBatch(frame[:0], uint32(b), wire.FamilyCountMin, "fire", items)
				if _, err := nc.Write(frame); err != nil {
					t.Error(err)
					return
				}
				payload, err := wire.ReadFrame(br, &buf)
				if err != nil {
					t.Error(err)
					return
				}
				status, _, body, err := wire.ParseResponse(payload)
				if err != nil || status != wire.StatusOK {
					t.Errorf("batch failed: %s (err %v)", body, err)
					return
				}
				acked.Add(int64(binary.LittleEndian.Uint32(body)))
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		c := dialT(t, addr)
		// Touch the sketch so resize has a target even if ingest lags.
		c.mustOK(wire.AppendApply(nil, 1, wire.FamilyCountMin, "fire", &wire.Spec{}))
		sizes := []int{4, 1, 3, 2}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			c.mustOK(wire.AppendApply(nil, uint32(i+2), wire.FamilyCountMin, "fire", &wire.Spec{Shards: sizes[i%len(sizes)]}))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Wait for the ingest goroutines, then stop the resizer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		defer close(stopResize)
		deadline := time.After(60 * time.Second)
		for {
			select {
			case <-done:
				return
			case <-deadline:
				t.Error("resize-under-fire timed out")
				return
			default:
				if acked.Load() >= conns*batches*batchItems {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	<-done
	<-stopResize

	want := int64(conns * batches * batchItems)
	if got := acked.Load(); got != want {
		t.Fatalf("acked %d items, want %d", got, want)
	}
	// Every acked update completed; the live N may trail by at most the
	// current relaxation bound and never exceed the ingested total.
	skH, _ := reg.OpenCountMin("fire", fastsketches.Spec{})
	sk := skH.Sketch()
	if n := sk.N(); int64(n) > want || int64(n) < want-int64(sk.Relaxation()) {
		t.Fatalf("N = %d outside [%d - S·r, %d] (S·r=%d)", n, want, want, sk.Relaxation())
	}
}

// TestShutdownDrainsInflight pins the graceful-drain contract: batches
// acked before Shutdown returns are fully ingested — after the registry
// closes (exact drain), the sketch's total weight covers every acked item.
func TestShutdownDrainsInflight(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// Hammer batches until the connection dies under Shutdown, counting
	// what was acked.
	var acked int64
	ingestDone := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(ingestDone)
		var buf, frame []byte
		items := make([]uint64, 5000)
		for b := uint32(0); ; b++ {
			for i := range items {
				items[i] = uint64(b)<<20 | uint64(i)
			}
			frame = wire.AppendBatch(frame[:0], b, wire.FamilyCountMin, "drain", items)
			if _, err := nc.Write(frame); err != nil {
				return
			}
			payload, err := wire.ReadFrame(br, &buf)
			if err != nil {
				return
			}
			status, _, body, err := wire.ParseResponse(payload)
			if err != nil || status != wire.StatusOK {
				return
			}
			acked += int64(binary.LittleEndian.Uint32(body))
			if b == 0 {
				close(started)
			}
		}
	}()

	<-started // at least one batch acked: the drain has something to prove
	skH, _ := reg.OpenCountMin("drain", fastsketches.Spec{})
	sk := skH.Sketch()
	srv.Shutdown()
	<-ingestDone // conn failed under the shutdown deadline; `acked` is final
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	reg.Close() // exact drain

	if acked == 0 {
		t.Fatal("no batch acked before shutdown")
	}
	if n := sk.N(); int64(n) < acked {
		t.Fatalf("drained N = %d < acked %d: an acked batch was lost", n, acked)
	}
}

// TestDropUnderBatchFire races drops against concurrent batches to the same
// name, repeatedly, through both drop paths: OpDrop on an admin connection
// and a bare Registry.Drop, the ops sweeper's path. A racing batch lands
// either on the pre-drop sketch, whose Close waits for its claimed lane, or
// on the recreated one — it never errors and never hangs. Afterwards a
// connection whose cached sketch was dropped out-of-band answers from, and
// ingests into, the fresh sketch.
func TestDropUnderBatchFire(t *testing.T) {
	for _, leg := range []struct {
		name string
		drop func(reg *fastsketches.Registry, admin *testConn, name string)
	}{
		{"OpDrop", func(_ *fastsketches.Registry, admin *testConn, name string) {
			// Drop whether or not the sketch currently exists (an ingester
			// may not have recreated it yet); the error answer is fine.
			admin.roundTrip(wire.AppendDrop(nil, admin.nextID(), wire.FamilyCountMin, name))
		}},
		{"RegistryDrop", func(reg *fastsketches.Registry, _ *testConn, name string) {
			reg.Drop("countmin", name)
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			_, reg, addr := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 2})
			const ingesters = 3 // one more than W: claimers queue for lanes
			const rounds = 60
			stop := make(chan struct{})
			var acked atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < ingesters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer nc.Close()
					br := bufio.NewReader(nc)
					var buf, frame []byte
					items := make([]uint64, 256)
					for b := uint32(0); ; b++ {
						select {
						case <-stop:
							return
						default:
						}
						for i := range items {
							items[i] = uint64(g)<<32 | uint64(i)
						}
						frame = wire.AppendBatch(frame[:0], b, wire.FamilyCountMin, "churn", items)
						if _, err := nc.Write(frame); err != nil {
							t.Error(err)
							return
						}
						payload, err := wire.ReadFrame(br, &buf)
						if err != nil {
							t.Error(err)
							return
						}
						status, _, body, err := wire.ParseResponse(payload)
						if err != nil || status != wire.StatusOK {
							t.Errorf("batch under drop fire: status %d, %v, %s", status, err, body)
							return
						}
						acked.Add(1)
					}
				}(g)
			}

			admin := dialT(t, addr)
			for r := 0; r < rounds; r++ {
				leg.drop(reg, admin, "churn")
				// Let a batch land between drops, so every drop races
				// live traffic.
				for a := acked.Load(); acked.Load() == a && !t.Failed(); {
					time.Sleep(50 * time.Microsecond)
				}
			}
			close(stop)
			wg.Wait()
			// No batch may hold a lane of a closed sketch: Shutdown in the
			// cleanup would hang otherwise.
			admin.mustOK(wire.AppendPing(nil, 1<<20))

			// A cached sketch dropped out-of-band: the connection's next
			// query answers from the fresh sketch, its next batch recreates
			// the name.
			q := dialT(t, addr)
			nQuery := func() uint64 {
				body := q.mustOK(wire.AppendQuery(nil, q.nextID(), wire.FamilyCountMin, wire.QueryN, "probe", 0))
				return binary.LittleEndian.Uint64(body)
			}
			q.mustOK(wire.AppendBatch(nil, q.nextID(), wire.FamilyCountMin, "probe", make([]uint64, 100)))
			if n := nQuery(); n != 100 {
				t.Fatalf("probe N = %d before the drop, want 100 (eager, exact)", n)
			}
			leg.drop(reg, admin, "probe")
			if n := nQuery(); n != 0 {
				t.Fatalf("after an out-of-band drop the cached connection answered N = %d, want 0 from the fresh sketch", n)
			}
			leg.drop(reg, admin, "probe")
			q.mustOK(wire.AppendBatch(nil, q.nextID(), wire.FamilyCountMin, "probe", make([]uint64, 7)))
			h, err := reg.OpenCountMin("probe", fastsketches.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			if n := h.Sketch().N(); n != 7 {
				t.Fatalf("batch after the drop: fresh sketch N = %d, want 7", n)
			}
		})
	}
}

// TestServeViewOps drives the view plane over the wire through OpApply:
// family 0 covers every sketch under the name, Info reports the view,
// queries keep answering (through the view), Spec.ViewOff reverts, and an
// absent name is a typed error on a connection that stays usable.
func TestServeViewOps(t *testing.T) {
	_, reg, addr := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	c := dialT(t, addr)
	view := &wire.Spec{View: &shard.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1}}

	// A view on a name with no sketches is a typed error, and creates none.
	if status, _ := c.roundTrip(wire.AppendApply(nil, c.nextID(), 0, "absent", view)); status != wire.StatusError {
		t.Fatal("view on an absent name should fail")
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("family-0 OpApply created %v", names)
	}

	c.mustOK(wire.AppendApply(nil, c.nextID(), wire.FamilyCountMin, "viewed", &wire.Spec{}))
	items := make([]uint64, 2000)
	for i := range items {
		items[i] = uint64(i % 5)
	}
	c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "viewed", items))

	// Enable with an hour-long refresh: the synchronous initial refresh is
	// the only fold, so the served totals below come from the published view.
	c.mustOK(wire.AppendApply(nil, c.nextID(), 0, "viewed", view))
	inf, err := wire.ParseInfo(c.mustOK(wire.AppendInfo(nil, c.nextID(), wire.FamilyCountMin, "viewed")))
	if err != nil {
		t.Fatal(err)
	}
	if v := inf.Spec.View; v == nil || v.RefreshEvery != time.Hour || v.MaxAge != -1 {
		t.Fatalf("Info.Spec.View after enable = %+v, want the declared view", v)
	}
	body := c.mustOK(wire.AppendQuery(nil, c.nextID(), wire.FamilyCountMin, wire.QueryN, "viewed", 0))
	viewN := binary.LittleEndian.Uint64(body)
	if viewN > 2000 {
		t.Fatalf("served view N = %d > ingested 2000", viewN)
	}

	// Registry-side the view really is attached (not just Info bookkeeping).
	if rinf, ok := reg.Info("countmin", "viewed"); !ok || rinf.Spec.View == nil {
		t.Fatalf("registry info = %+v (ok %v), want a view", rinf, ok)
	}

	// Switching the view off reverts; doing it again is a declarative no-op.
	for i := 0; i < 2; i++ {
		c.mustOK(wire.AppendApply(nil, c.nextID(), 0, "viewed", &wire.Spec{ViewOff: true}))
		inf, err = wire.ParseInfo(c.mustOK(wire.AppendInfo(nil, c.nextID(), wire.FamilyCountMin, "viewed")))
		if err != nil || inf.Spec.View != nil {
			t.Fatalf("Info after ViewOff = %+v (err %v), want view off", inf, err)
		}
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))
}

// TestServeEdgeCases pins the request edge cases that used to cost clients
// their connection: a malformed-but-addressable request gets a typed error
// reply and the SAME connection keeps serving; zero-item batches ack
// cleanly; a maximum-size batch frame is accepted in full; a batch
// pipelined behind a drop of its own sketch lands on the recreated sketch.
func TestServeEdgeCases(t *testing.T) {
	_, _, addr := startServer(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	c := dialT(t, addr)

	// Zero-update batch: acked with count 0, nothing created implicitly is
	// harmed, connection continues.
	body := c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyTheta, "edge", nil))
	if got := binary.LittleEndian.Uint32(body); got != 0 {
		t.Fatalf("zero-item batch acked %d, want 0", got)
	}

	// Empty sketch name: ErrBadName at parse time. The header is intact, so
	// the server must reply with a typed error carrying the request id and
	// keep the connection open — pinned by the follow-up ping on the SAME
	// connection.
	raw := binary.LittleEndian.AppendUint32(nil, 7) // payload length
	raw = append(raw, byte(wire.OpApply), 0x2A, 0, 0, 0, byte(wire.FamilyTheta), 0)
	if _, err := c.nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(c.br, &c.buf)
	if err != nil {
		t.Fatalf("connection died on empty-name request: %v", err)
	}
	status, id, _, perr := wire.ParseResponse(payload)
	if perr != nil || status != wire.StatusError {
		t.Fatalf("empty name: status=%d perr=%v, want typed error", status, perr)
	}
	if id != 0x2A {
		t.Fatalf("typed error carries id %d, want 42", id)
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))

	// Unknown op with a readable header: same contract.
	raw = binary.LittleEndian.AppendUint32(nil, 5)
	raw = append(raw, 0xEE, 0x2B, 0, 0, 0)
	if _, err := c.nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(c.br, &c.buf)
	if err != nil {
		t.Fatalf("connection died on unknown op: %v", err)
	}
	if status, id, _, _ := wire.ParseResponse(payload); status != wire.StatusError || id != 0x2B {
		t.Fatalf("unknown op: status=%d id=%d, want typed error id 43", status, id)
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))

	// A runt frame (shorter than the 5-byte header) is unaddressable: the
	// server may close that connection — but only that one.
	runt := dialT(t, addr)
	if _, err := runt.nc.Write(binary.LittleEndian.AppendUint32(nil, 0)); err != nil {
		t.Fatal(err)
	}
	runt.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for { // drain the error reply (if any) until close
		if _, err := wire.ReadFrame(runt.br, &runt.buf); err != nil {
			break
		}
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))

	// Maximum-length frame: a full MaxBatchItems batch is accepted and
	// acked item-for-item.
	big := make([]uint64, wire.MaxBatchItems)
	for i := range big {
		big[i] = uint64(i)
	}
	body = c.mustOK(wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "edge.big", big))
	if got := binary.LittleEndian.Uint32(body); got != uint32(len(big)) {
		t.Fatalf("max batch acked %d, want %d", got, len(big))
	}
	// One item past the cap is a typed error (ErrBadCount), connection keeps.
	over := wire.AppendBatch(nil, c.nextID(), wire.FamilyCountMin, "edge.big", big)
	over = append(over, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(over, uint32(len(over)-4))
	// Patch the item count to match the oversized payload.
	countOff := 4 + 5 + 1 + 1 + len("edge.big")
	binary.LittleEndian.PutUint32(over[countOff:], uint32(len(big)+1))
	if status, _ := c.roundTrip(over); status != wire.StatusError {
		t.Fatal("oversized batch should fail with a typed error")
	}
	c.mustOK(wire.AppendPing(nil, c.nextID()))

	// Drop + batch pipelined together on one connection: the server answers
	// in order, so the batch must land on the recreated sketch and ack.
	var pipelined []byte
	pipelined = wire.AppendBatch(pipelined, 100, wire.FamilyCountMin, "edge.drop", []uint64{1, 2, 3})
	pipelined = wire.AppendDrop(pipelined, 101, wire.FamilyCountMin, "edge.drop")
	pipelined = wire.AppendBatch(pipelined, 102, wire.FamilyCountMin, "edge.drop", []uint64{4, 5})
	pipelined = wire.AppendQuery(pipelined, 103, wire.FamilyCountMin, wire.QueryN, "edge.drop", 0)
	if _, err := c.nc.Write(pipelined); err != nil {
		t.Fatal(err)
	}
	for want := uint32(100); want <= 103; want++ {
		payload, err := wire.ReadFrame(c.br, &c.buf)
		if err != nil {
			t.Fatal(err)
		}
		status, id, body, perr := wire.ParseResponse(payload)
		if perr != nil || id != want {
			t.Fatalf("pipelined response id %d (perr %v), want %d", id, perr, want)
		}
		if status != wire.StatusOK {
			t.Fatalf("pipelined request %d failed: %s", want, body)
		}
		if want == 103 {
			// Only the post-drop batch counts; the pre-drop items died with
			// the dropped sketch. Single shard, batch acked before the query
			// was parsed — but the ack covers Update completion, and N may
			// trail by the shard relaxation r; with the default config r is
			// far larger than 2, so only the upper bound is sharp.
			if n := binary.LittleEndian.Uint64(body); n > 2 {
				t.Fatalf("recreated sketch N = %d, want ≤ 2", n)
			}
		}
	}
}
