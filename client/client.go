// Package client is the Go client library for sketchd, the fastsketches
// network front-end: connection pooling, request pipelining and batch
// buffering over the internal/wire protocol.
//
//	cl, err := client.Dial("127.0.0.1:7600", client.Options{})
//	defer cl.Close()
//
//	b := cl.NewBatch(client.Theta, "users.daily")   // ingestion path
//	for _, id := range userIDs {
//		b.Add(id) // buffered; flushed in large frames automatically
//	}
//	b.Flush()
//
//	est, err := cl.ThetaEstimate("users.daily")     // merged live query
//
// # Pooling and pipelining
//
// Dial opens Options.Conns TCP connections; requests round-robin across
// them, and each connection supports pipelining — many requests in flight,
// matched to responses by id — so concurrent goroutines share connections
// without head-of-line blocking on the client side. A connection that dies
// (server restart, network error) fails its in-flight requests once and is
// redialed transparently on next use. All methods are safe
// for concurrent use; a Batch is single-goroutine (make one per ingesting
// goroutine, which also gives each goroutine its own server-side lane fan-
// in).
//
// # Semantics
//
// The server answers through the registry's zero-alloc QueryInto plane, so
// a served query carries exactly the in-process staleness contract: it
// reflects all but at most S·r of the updates whose batches were acked
// before it was sent (Count-Min per-key counts keep the single-shard bound
// r). A Flush that returns nil means every item in the batch completed its
// Update on the server — acked items are never lost, including across a
// graceful server shutdown.
//
// The steady-state hot paths — Batch.Add/Flush and the scalar queries —
// allocate nothing: frames are encoded into per-connection reusable
// buffers, responses are decoded from a reusable read buffer, and in-flight
// call handles are pooled.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches/internal/shard"
	"fastsketches/internal/wire"
)

// Family selects a sketch family; values alias the wire protocol's.
type Family = wire.Family

// The sketch families. AllFamilies addresses every family registered under
// a name, for Apply.
const (
	Theta       = wire.FamilyTheta
	HLL         = wire.FamilyHLL
	Quantiles   = wire.FamilyQuantiles
	CountMin    = wire.FamilyCountMin
	AllFamilies = Family(0)
)

// Spec declares a served sketch's configuration — the library's Spec, the
// one form a sketch's configuration takes everywhere (see wire.Spec) — with
// the configs its planes point to.
type (
	Spec         = wire.Spec
	ViewConfig   = shard.ViewConfig
	WindowConfig = shard.WindowConfig
)

// Info is the served sketch metadata returned by Client.Info: the Spec in
// force and the live stats.
type Info = wire.Info

// OpsStats is the daemon's lifecycle sweeper / memory-budget counters
// returned by Client.OpsStats.
type OpsStats = wire.OpsStats

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// Error is a server-reported failure (the request reached the server and
// was rejected: unknown sketch, invalid resize, unsupported query, …).
type Error struct{ Msg string }

func (e *Error) Error() string { return "sketchd: " + e.Msg }

// Options tune a Client. The zero value is ready to use.
type Options struct {
	// Conns is the connection pool size. Default 2.
	Conns int
	// BatchSize is the item count at which a Batch auto-flushes. Default
	// 4096, capped at wire.MaxBatchItems.
	BatchSize int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
}

func (o *Options) normalise() {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4096
	}
	if o.BatchSize > wire.MaxBatchItems {
		o.BatchSize = wire.MaxBatchItems
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// Client is a pooled, pipelined sketchd client. Create with Dial; safe for
// concurrent use. A pooled connection that fails (server restart, RST,
// read error) is redialed transparently the next time the round robin
// lands on its slot — requests that were in flight on it fail once with
// the transport error, and retries find a fresh connection.
type Client struct {
	addr   string
	opts   Options
	mu     sync.Mutex // guards conns slots across redials
	conns  []*conn
	next   atomic.Uint64
	closed atomic.Bool
}

// Dial connects the pool and returns a ready client.
func Dial(addr string, opts Options) (*Client, error) {
	opts.normalise()
	c := &Client{addr: addr, opts: opts}
	for i := 0; i < opts.Conns; i++ {
		cn, err := dialConn(addr, opts.DialTimeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
		}
		c.conns = append(c.conns, cn)
	}
	return c, nil
}

// Close tears down the pool. In-flight requests fail with a transport
// error; buffered-but-unflushed Batch items are dropped.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.conns {
		cn.close()
	}
	return nil
}

// pick round-robins the pool, replacing a slot whose connection has died
// with a freshly dialed one.
func (c *Client) pick() (*conn, error) {
	if c.closed.Load() || len(c.conns) == 0 {
		return nil, ErrClosed
	}
	i := int(c.next.Add(1) % uint64(len(c.conns)))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() { // raced Close; don't dial past it
		return nil, ErrClosed
	}
	cn := c.conns[i]
	if cn.dead() {
		fresh, err := dialConn(c.addr, c.opts.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("client: redialing %s: %w", c.addr, err)
		}
		cn.close()
		c.conns[i] = fresh
		cn = fresh
	}
	return cn, nil
}

// do runs one request/response round trip, failing server-side errors as
// *Error. On success the caller reads the result off the returned call and
// releases it.
func (c *Client) do(sp *reqSpec) (*call, error) {
	if sp.op != wire.OpPing && sp.op != wire.OpNames && sp.op != wire.OpCheckpoint &&
		sp.op != wire.OpOpsStats {
		// Validate client-side: an invalid name would be rejected as a
		// protocol (not semantic) error and cost the connection.
		if err := wire.ValidName(sp.name); err != nil {
			return nil, err
		}
	}
	cn, err := c.pick()
	if err != nil {
		return nil, err
	}
	ca, err := cn.roundTrip(sp)
	if err != nil {
		return nil, err
	}
	if ca.status != wire.StatusOK {
		err := &Error{Msg: string(ca.body())}
		ca.release()
		return nil, err
	}
	return ca, nil
}

// doEmpty runs a request whose success response carries no body.
func (c *Client) doEmpty(sp *reqSpec) error {
	ca, err := c.do(sp)
	if err != nil {
		return err
	}
	ca.release()
	return nil
}

// doU64 runs a request and decodes its 8-byte result.
func (c *Client) doU64(sp *reqSpec) (uint64, error) {
	ca, err := c.do(sp)
	if err != nil {
		return 0, err
	}
	body := ca.body()
	if len(body) != 8 {
		ca.release()
		return 0, fmt.Errorf("client: %d-byte result, want 8", len(body))
	}
	v := binary.LittleEndian.Uint64(body)
	ca.release()
	return v, nil
}

func (c *Client) doF64(sp *reqSpec) (float64, error) {
	v, err := c.doU64(sp)
	return math.Float64frombits(v), err
}

// Ping checks liveness over one pooled connection.
func (c *Client) Ping() error {
	return c.doEmpty(&reqSpec{op: wire.OpPing})
}

// Apply applies spec to the named sketch of family fam, creating it if
// absent, exactly as the library's Open* does — or, with AllFamilies, to
// every sketch already registered under name, dropping a window Decay from
// the families that cannot decay. The server validates spec; a rejected
// one is a *Error carrying the library's ErrConfig message and changes
// nothing. Nil planes are left as they are, so Apply is the remote form of
// every admin change: resize, view, window, pinning.
func (c *Client) Apply(fam Family, name string, spec Spec) error {
	return c.doEmpty(&reqSpec{op: wire.OpApply, fam: fam, name: name, spec: &spec})
}

// Create ensures the named sketch exists: Apply of the empty Spec.
func (c *Client) Create(fam Family, name string) error { return c.Apply(fam, name, Spec{}) }

// Resize live-reshards the named sketch: Apply of Spec{Shards: shards}.
func (c *Client) Resize(fam Family, name string, shards int) error {
	return c.Apply(fam, name, Spec{Shards: shards})
}

// EnableView materializes the view of every sketch under name: Apply of a
// Spec.View (maxAge 0 derives from refreshEvery, negative never expires).
func (c *Client) EnableView(name string, refreshEvery, maxAge time.Duration) error {
	return c.Apply(AllFamilies, name, Spec{View: &ViewConfig{RefreshEvery: refreshEvery, MaxAge: maxAge}})
}

// EnableWindow declares a sliding window on every sketch under name: Apply
// of a Spec.Window.
func (c *Client) EnableWindow(name string, interval time.Duration, slots int, decay float64) error {
	return c.Apply(AllFamilies, name, Spec{Window: &WindowConfig{Interval: interval, Slots: slots, Decay: decay}})
}

// Drop closes and removes the named sketch server-side; the name becomes
// free for a fresh sketch.
func (c *Client) Drop(fam Family, name string) error {
	return c.doEmpty(&reqSpec{op: wire.OpDrop, fam: fam, name: name})
}

// Names enumerates every registered sketch as "family/name", sorted.
func (c *Client) Names() ([]string, error) {
	ca, err := c.do(&reqSpec{op: wire.OpNames})
	if err != nil {
		return nil, err
	}
	names, perr := wire.ParseNames(ca.body())
	ca.release()
	return names, perr
}

// Info returns the named sketch's metadata: the Spec in force and the live
// staleness bounds (Relaxation = S·r for merged queries, ShardRelaxation =
// r for per-key reads). The Spec's planes come back without a Clock.
func (c *Client) Info(fam Family, name string) (Info, error) {
	ca, err := c.do(&reqSpec{op: wire.OpInfo, fam: fam, name: name})
	if err != nil {
		return Info{}, err
	}
	inf, perr := wire.ParseInfo(ca.body())
	ca.release()
	return inf, perr
}

// ThetaEstimate answers the named Θ sketch's merged distinct-count query.
func (c *Client) ThetaEstimate(name string) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: Theta, q: wire.QueryEstimate, name: name})
}

// HLLEstimate answers the named HLL sketch's merged distinct-count query.
func (c *Client) HLLEstimate(name string) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: HLL, q: wire.QueryEstimate, name: name})
}

// Quantile returns an element of the named quantiles sketch's merged state
// with normalized rank ≈ phi.
func (c *Client) Quantile(name string, phi float64) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: Quantiles, q: wire.QueryQuantile,
		name: name, arg: math.Float64bits(phi)})
}

// Rank returns the estimated normalized rank of v in the named quantiles
// sketch's merged state.
func (c *Client) Rank(name string, v float64) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: Quantiles, q: wire.QueryRank,
		name: name, arg: math.Float64bits(v)})
}

// QuantilesN returns the item count of the named quantiles sketch's merged
// state.
func (c *Client) QuantilesN(name string) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: Quantiles, q: wire.QueryN, name: name})
}

// Count returns the Count-Min frequency estimate of key — never an
// underestimate of the key's propagated prefix, with the single-shard
// staleness bound r.
func (c *Client) Count(name string, key uint64) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: CountMin, q: wire.QueryCount,
		name: name, arg: key})
}

// CountMinN returns the named Count-Min sketch's total weight (an
// aggregate read under the combined S·r bound).
func (c *Client) CountMinN(name string) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: CountMin, q: wire.QueryN, name: name})
}

// ThetaWindowEstimate answers the named Θ sketch's distinct-count query
// over its declared sliding window. Errors with a server-side *Error when
// no window is declared on the sketch.
func (c *Client) ThetaWindowEstimate(name string) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: Theta, q: wire.QueryWindowEstimate, name: name})
}

// HLLWindowEstimate is ThetaWindowEstimate for the named HLL sketch.
func (c *Client) HLLWindowEstimate(name string) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: HLL, q: wire.QueryWindowEstimate, name: name})
}

// WindowQuantile returns an element of the named quantiles sketch's
// windowed state with normalized rank ≈ phi. Errors when no window is
// declared.
func (c *Client) WindowQuantile(name string, phi float64) (float64, error) {
	return c.doF64(&reqSpec{op: wire.OpQuery, fam: Quantiles, q: wire.QueryWindowQuantile,
		name: name, arg: math.Float64bits(phi)})
}

// WindowQuantilesN returns the item count of the named quantiles sketch's
// windowed state. Errors when no window is declared.
func (c *Client) WindowQuantilesN(name string) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: Quantiles, q: wire.QueryWindowN, name: name})
}

// WindowCount returns the named Count-Min sketch's windowed frequency
// estimate of key: counts from the live interval and the last slots closed
// intervals only. Errors when no window is declared.
func (c *Client) WindowCount(name string, key uint64) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: CountMin, q: wire.QueryWindowCount,
		name: name, arg: key})
}

// WindowCountMinN returns the named Count-Min sketch's windowed total
// weight. Errors when no window is declared.
func (c *Client) WindowCountMinN(name string) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: CountMin, q: wire.QueryWindowN, name: name})
}

// DecayedCount returns the named Count-Min sketch's exponentially
// time-decayed frequency estimate of key: a count observed k rotations ago
// contributes with weight decay^k, the live interval with weight 1. Errors
// unless a window with decay in (0,1) is declared.
func (c *Client) DecayedCount(name string, key uint64) (uint64, error) {
	return c.doU64(&reqSpec{op: wire.OpQuery, fam: CountMin, q: wire.QueryDecayedCount,
		name: name, arg: key})
}

// Snapshot exports the named sketch's merged state as a portable snapshot
// blob: a self-describing record that Restore — on this daemon, another
// daemon, or an in-process Registry — folds back in losslessly. The export
// reflects all but at most S·r acked updates. Unlike the ingest and query
// paths, Snapshot does not create absent sketches; snapshotting an unknown
// name is a server-side *Error.
func (c *Client) Snapshot(fam Family, name string) ([]byte, error) {
	ca, err := c.do(&reqSpec{op: wire.OpSnapshot, fam: fam, name: name})
	if err != nil {
		return nil, err
	}
	snap := append([]byte(nil), ca.body()...)
	ca.release()
	return snap, nil
}

// Restore folds a snapshot blob (from Snapshot, here or on another daemon)
// into the named sketch, creating it if absent. Only sketch contents are
// folded — the receiving sketch keeps its own Spec. The blob's recorded
// family must match fam.
func (c *Client) Restore(fam Family, name string, snap []byte) error {
	if len(snap) > wire.MaxBlob {
		return fmt.Errorf("client: snapshot blob %d bytes exceeds wire limit %d", len(snap), wire.MaxBlob)
	}
	return c.doEmpty(&reqSpec{op: wire.OpRestore, fam: fam, name: name, blob: snap})
}

// Checkpoint asks the daemon to write its checkpoint file now (every sketch,
// durably, atomic rename into place) and returns once it is on disk. Errors
// with a server-side *Error if the daemon was started without a checkpoint
// path.
func (c *Client) Checkpoint() error {
	return c.doEmpty(&reqSpec{op: wire.OpCheckpoint})
}

// OpsStats reports the daemon's lifecycle sweeper and memory-budget
// counters: sweeps run, idle-TTL evictions, budget sheds and shrinks, the
// latest resident-bytes estimate, the configured budget, and the live
// sketch count. Errors with a server-side *Error if the daemon was started
// without an ops manager (no -idle-ttl / -mem-budget).
func (c *Client) OpsStats() (OpsStats, error) {
	ca, err := c.do(&reqSpec{op: wire.OpOpsStats})
	if err != nil {
		return OpsStats{}, err
	}
	st, perr := wire.ParseOpsStats(ca.body())
	ca.release()
	if perr != nil {
		return OpsStats{}, fmt.Errorf("client: ops stats: %w", perr)
	}
	return st, nil
}

// reqSpec carries one request's parameters to the connection writer, which
// encodes it under the per-connection buffer lock — keeping every call
// site's hot path free of closures and per-request buffers.
type reqSpec struct {
	op    wire.Op
	fam   Family
	q     wire.Query
	name  string
	arg   uint64
	spec  *Spec
	items []uint64
	blob  []byte
}

// conn is one pooled connection: writes serialised under wmu into a
// reusable frame buffer, responses demultiplexed by a reader goroutine
// through pooled call handles — the pipelining plane.
type conn struct {
	nc net.Conn
	bw *bufio.Writer

	wmu  sync.Mutex
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint32]*call
	nextID  uint32
	err     error
}

// call is one in-flight request. Results up to scalarMax bytes land in the
// inline array (zero-alloc scalar path); larger bodies (name lists, error
// messages) are copied to big.
type call struct {
	done   chan struct{}
	status byte
	n      uint8
	scalar [32]byte
	big    []byte
	err    error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func (ca *call) body() []byte {
	if ca.big != nil {
		return ca.big
	}
	return ca.scalar[:ca.n]
}

func (ca *call) release() {
	ca.big = nil
	ca.err = nil
	callPool.Put(ca)
}

func dialConn(addr string, timeout time.Duration) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := &conn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 1<<16),
		pending: make(map[uint32]*call),
	}
	go cn.readLoop()
	return cn, nil
}

func (cn *conn) close() {
	cn.nc.Close() // readLoop fails and completes all pending calls
}

// dead reports whether the connection has seen a transport failure and can
// serve no further requests.
func (cn *conn) dead() bool {
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	return cn.err != nil
}

// fail completes every pending call with err (first failure wins) and
// poisons the connection.
func (cn *conn) fail(err error) {
	cn.pmu.Lock()
	if cn.err == nil {
		cn.err = err
	}
	for id, ca := range cn.pending {
		delete(cn.pending, id)
		ca.err = cn.err
		ca.done <- struct{}{}
	}
	cn.pmu.Unlock()
}

// readLoop demultiplexes response frames to their pending calls by id.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, 1<<16)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, &buf)
		if err != nil {
			cn.fail(fmt.Errorf("client: transport: %w", err))
			return
		}
		status, id, body, err := wire.ParseResponse(payload)
		if err != nil {
			cn.fail(err)
			return
		}
		cn.pmu.Lock()
		ca := cn.pending[id]
		delete(cn.pending, id)
		cn.pmu.Unlock()
		if ca == nil {
			cn.fail(fmt.Errorf("client: unmatched response id %d", id))
			return
		}
		ca.status = status
		if len(body) <= len(ca.scalar) {
			ca.n = uint8(copy(ca.scalar[:], body))
			ca.big = nil
		} else {
			ca.big = append([]byte(nil), body...)
			ca.n = 0
		}
		ca.done <- struct{}{}
	}
}

// roundTrip registers a call, encodes and flushes the request, and blocks
// for the response. Multiple goroutines round-tripping on one conn give
// pipelining: writes interleave under wmu while responses demultiplex by
// id.
func (cn *conn) roundTrip(sp *reqSpec) (*call, error) {
	ca := callPool.Get().(*call)
	ca.err = nil
	ca.big = nil

	cn.pmu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.pmu.Unlock()
		callPool.Put(ca)
		return nil, err
	}
	id := cn.nextID
	cn.nextID++
	cn.pending[id] = ca
	cn.pmu.Unlock()

	cn.wmu.Lock()
	b := cn.wbuf[:0]
	switch sp.op {
	case wire.OpPing:
		b = wire.AppendPing(b, id)
	case wire.OpNames:
		b = wire.AppendNamesReq(b, id)
	case wire.OpApply:
		b = wire.AppendApply(b, id, sp.fam, sp.name, sp.spec)
	case wire.OpDrop:
		b = wire.AppendDrop(b, id, sp.fam, sp.name)
	case wire.OpInfo:
		b = wire.AppendInfo(b, id, sp.fam, sp.name)
	case wire.OpBatch:
		b = wire.AppendBatch(b, id, sp.fam, sp.name, sp.items)
	case wire.OpQuery:
		b = wire.AppendQuery(b, id, sp.fam, sp.q, sp.name, sp.arg)
	case wire.OpSnapshot:
		b = wire.AppendSnapshotReq(b, id, sp.fam, sp.name)
	case wire.OpRestore:
		b = wire.AppendRestore(b, id, sp.fam, sp.name, sp.blob)
	case wire.OpCheckpoint:
		b = wire.AppendCheckpointReq(b, id)
	case wire.OpOpsStats:
		b = wire.AppendOpsStatsReq(b, id)
	}
	cn.wbuf = b
	_, werr := cn.bw.Write(b)
	if werr == nil {
		werr = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if werr != nil {
		// fail() completes our pending call too (unless the response raced
		// in first, in which case the result below is simply valid).
		cn.fail(fmt.Errorf("client: transport: %w", werr))
	}

	<-ca.done
	if ca.err != nil {
		err := ca.err
		ca.release()
		return nil, err
	}
	return ca, nil
}
