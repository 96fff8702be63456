// Package server implements sketchd's TCP front-end over a
// fastsketches.Registry: the serving layer that turns the in-process
// concurrent-sketch library into a network daemon carrying many clients'
// traffic. It speaks the internal/wire protocol — length-prefixed binary
// frames — and is built so the paper's concurrency actually gets exercised
// per connection:
//
//   - Batched ingest. One OpBatch frame carries many updates; the
//     connection's own goroutine claims one of the sketch's W writer lanes
//     (AcquireLane, which keeps the framework's one-goroutine-per-lane
//     discipline), feeds the whole batch to the family's UpdateBatch,
//     releases the lane and acks. An acked batch is therefore a set of
//     *completed* updates in the paper's sense: the merged-query staleness
//     bound S·r applies to it exactly as it would to in-process writers.
//     Parallelism comes from concurrent connections, up to W per sketch;
//     the server starts no goroutine per sketch.
//
//   - Pipelined queries. Requests are answered in order per connection, so
//     clients may keep many frames in flight. Every query is served through
//     the zero-allocation QueryInto plane with per-connection reusable
//     accumulators: one accumulator per family per connection (accumulator
//     dimensions depend only on the registry's family parameters, never on
//     the sketch or its shard count), reset and refolded per query — the
//     serving path inherits the library's zero-alloc merged-query contract.
//
//   - One control plane. An OpApply frame carries a fastsketches.Spec —
//     shard count, window, view, autoscale policy, lifecycle — and the
//     server hands it to the registry's Open* (one family, get-or-create)
//     or Registry.Apply (family 0, every sketch under the name), the same
//     validation and the same apply order in-process code gets. OpInfo
//     reports the Spec in force; Drop and Names complete the admin surface,
//     so a remote operator can walk the throughput/staleness trade-off of a
//     live sketch exactly as in-process code can.
//
// A sketch dropped under a connection — by OpDrop on any connection, or by
// a bare Registry.Drop such as the ops sweeper's — is noticed by a closed
// check on the connection's cached sketch, and the name is reopened fresh.
//
// Shutdown is graceful by construction: the listener closes, in-flight
// requests (including long batches) run to completion and are acked, and
// buffered pipeline frames already received are served. The caller closes
// the registry afterwards, which drains every sketch buffer exactly.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastsketches"
	"fastsketches/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Server is one sketchd instance: a TCP acceptor over a caller-owned
// Registry. Create with New, drive with Serve, stop with Shutdown; the
// caller closes the Registry after Shutdown returns.
type Server struct {
	reg *fastsketches.Registry

	mu           sync.Mutex
	ln           net.Listener
	conns        map[net.Conn]struct{}
	shuttingDown bool

	connWG sync.WaitGroup

	// ckpt, when set (SetCheckpoint), serves OpCheckpoint: one synchronous
	// checkpoint write. Guarded by mu; nil means checkpointing is not
	// configured and the op answers with a typed error.
	ckpt func() error

	// opsStats, when set (SetOps), serves OpOpsStats with the lifecycle
	// sweeper's counters. Guarded by mu; nil answers with a typed error.
	opsStats func() wire.OpsStats

	// ingestObs, when set (SetIngestObserver), is loaded once per OpBatch
	// and called after the batch's updates: n items in d nanoseconds.
	ingestObs atomic.Pointer[func(n, d int64)]
}

type sketchKey struct {
	fam  wire.Family
	name string
}

// New returns a server over reg. The registry stays caller-owned: the
// caller closes it after Shutdown, at which point every sketch buffer is
// drained exactly.
func New(reg *fastsketches.Registry) *Server {
	return &Server{reg: reg, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Shutdown, serving each on its own
// goroutine. It returns ErrServerClosed after Shutdown, or the first
// accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var acceptDelay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining() {
				return ErrServerClosed
			}
			// Transient accept failures (fd exhaustion under a connection
			// burst, aborted handshakes, signals) must not kill a daemon
			// holding live connections: back off and retry, net/http style.
			if isTemporaryAccept(err) {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		s.mu.Lock()
		if s.shuttingDown {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// isTemporaryAccept reports whether an Accept error is worth retrying
// after a backoff. Spelled out against the concrete errnos rather than the
// deprecated net.Error.Temporary.
func isTemporaryAccept(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EINTR)
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shuttingDown
}

// Shutdown stops the server gracefully: the listener closes, every
// connection's pending read is unblocked (a read deadline in the past), and
// Shutdown waits for all connection handlers to finish — each serves any
// frames it has already received, completing and acking in-flight batches.
// Idempotent; concurrent calls all block until the drain completes. The
// caller closes the Registry afterwards.
func (s *Server) Shutdown() {
	s.mu.Lock()
	first := !s.shuttingDown
	s.shuttingDown = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if first && ln != nil {
		ln.Close()
	}
	deadline := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(deadline)
	}
	s.connWG.Wait()
}

// handleConn serves one connection: a strict request/response loop over
// length-prefixed frames, responses written in request order. Writes are
// buffered and flushed only when the read side has no more buffered frames,
// so a pipelining client pays one syscall per burst, not per request.
func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	bw := bufio.NewWriterSize(nc, 1<<16)
	cs := newConnState(s)
	var in []byte
	out := make([]byte, 0, 512)
	for {
		// Under shutdown the past read deadline fails only actual socket
		// reads: frames already buffered by br are still decoded and served,
		// so a pipeline burst received before the deadline is fully drained.
		payload, err := wire.ReadFrame(br, &in)
		if err != nil {
			bw.Flush()
			return
		}
		req, perr := wire.ParseRequest(payload)
		out = out[:0]
		if perr != nil {
			// A malformed request never endangers framing: the length prefix
			// already delimited this payload, so the stream stays aligned on
			// frame boundaries regardless of what the body held. When the
			// 5-byte header was intact the request is addressable — reply with
			// a typed error carrying its id and keep serving the connection
			// (one bad request in a pipeline must not kill its neighbours).
			// Only a runt frame too short to carry a request id is
			// unanswerable; that alone hangs up.
			out = wire.AppendError(out, req.ID, perr.Error())
			if len(payload) < wire.HeaderLen {
				bw.Write(out)
				bw.Flush()
				return
			}
			if _, err := bw.Write(out); err != nil {
				return
			}
			if br.Buffered() == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
			continue
		}
		out = cs.serve(&req, out)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// connState is one connection's reusable serving state: cached sketches
// (keyed by family and name, so the per-request lookup is an
// allocation-free map hit), the decode scratch of the ingest path, and one
// lazily built query function per family, each owning the connection's
// reusable accumulator for that family (see family.querier) — the served
// query path inherits the library's zero-alloc QueryInto contract.
type connState struct {
	s *Server

	sketches map[sketchKey]sketch
	queriers [len(families)]queryFunc
	scratch  scratch

	// snapBuf is the connection's reusable snapshot-encode scratch
	// (OpSnapshot responses and OpMergeRemote pulls).
	snapBuf []byte
}

func newConnState(s *Server) *connState {
	return &connState{s: s, sketches: make(map[sketchKey]sketch)}
}

// sketch resolves (family, name) to the cached sketch, opening it in the
// registry (get-or-create) on first use or when the cached one has been
// dropped since. A miss also forgets every cached sketch dropped since, so
// a connection does not keep dropped tenants' memory alive; the sweep is
// one closed check per cached sketch, beside the registry open the miss
// pays anyway.
func (cs *connState) sketch(fam wire.Family, name []byte) (sketch, error) {
	if sk, ok := cs.sketches[sketchKey{fam, string(name)}]; ok && !sk.Closed() {
		return sk, nil
	}
	sk, err := families[fam].open(cs.s.reg, string(name), fastsketches.Spec{})
	if err != nil {
		return nil, err
	}
	for k, c := range cs.sketches {
		if c.Closed() {
			delete(cs.sketches, k)
		}
	}
	cs.sketches[sketchKey{fam, string(name)}] = sk
	return sk, nil
}

// ingest serves one OpBatch on the connection's goroutine: claim one of the
// sketch's writer lanes, feed the batch to the family's batched update,
// release the lane. A sketch dropped between the cache check and the claim
// refuses it; the name is then reopened and the claim retried on the fresh
// sketch, so a drop never fails a batch.
func (cs *connState) ingest(req *wire.Request) error {
	for {
		sk, err := cs.sketch(req.Family, req.Name)
		if err != nil {
			return err
		}
		lane, ok := sk.AcquireLane()
		if !ok {
			continue
		}
		obs := cs.s.ingestObs.Load()
		var start time.Time
		if obs != nil {
			start = time.Now()
		}
		families[req.Family].update(sk, lane, req.Items, &cs.scratch)
		sk.ReleaseLane(lane)
		if obs != nil {
			(*obs)(int64(req.NumItems()), time.Since(start).Nanoseconds())
		}
		return nil
	}
}

// serve answers one parsed request, appending the response frame to out.
func (cs *connState) serve(req *wire.Request, out []byte) []byte {
	switch req.Op {
	case wire.OpPing:
		return wire.AppendOK(out, req.ID)

	case wire.OpBatch:
		if err := cs.ingest(req); err != nil {
			return wire.AppendError(out, req.ID, err.Error())
		}
		return wire.AppendOKU32(out, req.ID, uint32(req.NumItems()))

	case wire.OpQuery:
		return cs.query(req, out)

	case wire.OpApply:
		var err error
		if req.Family == 0 {
			err = cs.s.reg.Apply("", string(req.Name), req.Spec)
		} else {
			_, err = families[req.Family].open(cs.s.reg, string(req.Name), req.Spec)
		}
		if err != nil {
			return wire.AppendError(out, req.ID, err.Error())
		}
		return wire.AppendOK(out, req.ID)

	case wire.OpDrop:
		if !cs.s.reg.Drop(req.Family.String(), string(req.Name)) {
			return wire.AppendError(out, req.ID, fmt.Sprintf("no %s sketch %q", req.Family, req.Name))
		}
		return wire.AppendOK(out, req.ID)

	case wire.OpNames:
		return wire.AppendOKNames(out, req.ID, cs.s.reg.Names())

	case wire.OpInfo:
		inf, ok := cs.s.reg.Info(req.Family.String(), string(req.Name))
		if !ok {
			return wire.AppendError(out, req.ID, fmt.Sprintf("no %s sketch %q", req.Family, req.Name))
		}
		return wire.AppendOKInfo(out, req.ID, &wire.Info{
			Spec: inf.Spec, Writers: inf.Writers,
			Relaxation:      uint64(inf.Relaxation),
			ShardRelaxation: uint64(inf.ShardRelaxation),
			Eager:           inf.Eager,
			ViewLagNs:       uint64(inf.ViewLag),
			WindowRotations: inf.WindowRotations,
			WindowLiveAgeNs: uint64(inf.WindowLiveAge),
		})

	case wire.OpSnapshot:
		return cs.snapshot(req, out)

	case wire.OpRestore:
		return cs.restore(req, out)

	case wire.OpMergeRemote:
		return cs.mergeRemote(req, out)

	case wire.OpCheckpoint:
		fn := cs.s.checkpointFn()
		if fn == nil {
			return wire.AppendError(out, req.ID, "checkpointing not configured on this server")
		}
		if err := fn(); err != nil {
			return wire.AppendError(out, req.ID, err.Error())
		}
		return wire.AppendOK(out, req.ID)

	case wire.OpOpsStats:
		fn := cs.s.opsStatsFn()
		if fn == nil {
			return wire.AppendError(out, req.ID, "ops manager not configured on this server")
		}
		return wire.AppendOKOpsStats(out, req.ID, fn())
	}
	return wire.AppendError(out, req.ID, wire.ErrBadOp.Error())
}
