// Package server implements sketchd's TCP front-end over a
// fastsketches.Registry: the serving layer that turns the in-process
// concurrent-sketch library into a network daemon carrying many clients'
// traffic. It speaks the internal/wire protocol — length-prefixed binary
// frames — and is built so the paper's concurrency actually gets exercised
// per connection:
//
//   - Batched ingest. One OpBatch frame carries many updates; the server
//     fans each batch into the sketch's W writer lanes (one long-lived lane
//     worker goroutine per lane per sketch, respecting the framework's
//     one-goroutine-per-lane discipline) and acks after every item's Update
//     has returned. An acked batch is therefore a set of *completed* updates
//     in the paper's sense: the merged-query staleness bound S·r applies to
//     it exactly as it would to in-process writers.
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
// Shutdown is graceful by construction: the listener closes, in-flight
// requests (including long batch dispatches) run to completion and are
// acked, buffered pipeline frames already received are served, and only
// then do the lane workers exit. The caller closes the registry afterwards,
// which drains every sketch buffer exactly.
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

var errShuttingDown = errors.New("server: shutting down")

// Server is one sketchd instance: a TCP acceptor over a caller-owned
// Registry. Create with New, drive with Serve, stop with Shutdown; the
// caller closes the Registry after Shutdown returns.
type Server struct {
	reg     *fastsketches.Registry
	writers int

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	lanes map[laneKey]*laneSet
	// dropping holds a tombstone per name being dropped: laneSetFor waits
	// on the channel instead of binding new lane workers to the sketch the
	// drop is about to close, and drop's slow work (lane drain, registry
	// drain) runs without holding mu — a drop never stalls the control
	// plane of unrelated sketches.
	dropping     map[laneKey]chan struct{}
	shuttingDown bool

	connWG sync.WaitGroup
	// gen invalidates per-connection handle caches; bumped by Drop so a
	// connection never ingests into (or queries) a sketch retired under it.
	gen atomic.Uint64

	// ckpt, when set (SetCheckpoint), serves OpCheckpoint: one synchronous
	// checkpoint write. Guarded by mu; nil means checkpointing is not
	// configured and the op answers with a typed error.
	ckpt func() error

	// opsStats, when set (SetOps), serves OpOpsStats with the lifecycle
	// sweeper's counters. Guarded by mu; nil answers with a typed error.
	opsStats func() wire.OpsStats

	// ingestObs, when set (SetIngestObserver), is called by each lane worker
	// after it applies one ingest chunk: n items in d nanoseconds. Guarded by
	// mu for installation; lane apply closures capture it at lane-set
	// creation, so install it before serving traffic.
	ingestObs func(n, d int64)
}

type laneKey struct {
	fam  wire.Family
	name string
}

// New returns a server over reg. The registry stays caller-owned: the
// caller closes it after Shutdown, at which point every sketch buffer is
// drained exactly.
func New(reg *fastsketches.Registry) *Server {
	return &Server{
		reg:      reg,
		writers:  reg.Config().Writers,
		conns:    make(map[net.Conn]struct{}),
		lanes:    make(map[laneKey]*laneSet),
		dropping: make(map[laneKey]chan struct{}),
	}
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
// frames it has already received, completing and acking in-flight batches —
// before the per-sketch lane workers exit. Idempotent; concurrent calls all
// block until the drain completes. The caller closes the Registry
// afterwards.
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

	s.mu.Lock()
	lanes := s.lanes
	s.lanes = make(map[laneKey]*laneSet)
	s.mu.Unlock()
	for _, ls := range lanes {
		ls.close()
	}
}

// laneSetFor returns the ingest lane workers of the named sketch, creating
// sketch and workers on first use. Creation is rejected while shutting
// down, so no worker can be born after Shutdown started collecting them;
// while the name is mid-Drop, creation waits for the drop to finish and
// then binds to the recreated (fresh) sketch — never to the dying one.
func (s *Server) laneSetFor(fam wire.Family, name []byte) (*laneSet, error) {
	key := laneKey{fam, string(name)}
	s.mu.Lock()
	for {
		if ls, ok := s.lanes[key]; ok {
			s.mu.Unlock()
			return ls, nil
		}
		ch, isDropping := s.dropping[key]
		if !isDropping {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if s.shuttingDown {
		return nil, errShuttingDown
	}
	f := &families[fam]
	sk, err := f.open(s.reg, key.name, fastsketches.Spec{})
	if err != nil {
		return nil, err
	}
	apply := f.applier(sk, s.writers)
	if obs := s.ingestObs; obs != nil {
		inner := apply
		apply = func(lane int, items []byte) {
			start := time.Now()
			inner(lane, items)
			obs(int64(len(items)/wire.ItemSize), time.Since(start).Nanoseconds())
		}
	}
	ls := newLaneSet(s.writers, apply)
	s.lanes[key] = ls
	return ls, nil
}

// drop retires the named sketch: the lane workers drain and exit first
// (close waits out in-flight chunks, whose Updates still land on the open
// sketch), then the registry closes and unregisters it, then every
// connection's handle cache is invalidated. A tombstone in s.dropping
// makes the sequence atomic against laneSetFor without holding s.mu over
// the slow drains: a concurrent batch either found the old lane set (its
// items drain before the sketch closes) or waits on the tombstone until
// the name maps to a fresh, empty sketch — it can never bind new lane
// workers to the dying sketch, which would wedge them forever on a closed
// sketch's Update. Same-name drops serialise on the tombstone; unrelated
// sketches and connection setup are never stalled.
func (s *Server) drop(fam wire.Family, name []byte) bool {
	key := laneKey{fam, string(name)}
	s.mu.Lock()
	for {
		ch, isDropping := s.dropping[key]
		if !isDropping {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	ls := s.lanes[key]
	delete(s.lanes, key)
	done := make(chan struct{})
	s.dropping[key] = done
	s.mu.Unlock()

	if ls != nil {
		ls.close()
	}
	ok := s.reg.Drop(fam.String(), key.name)
	s.gen.Add(1)

	s.mu.Lock()
	delete(s.dropping, key)
	close(done)
	s.mu.Unlock()
	return ok
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

// connState is one connection's reusable serving state: cached sketches and
// lane sets (both keyed by family and name, so the per-request lookup is an
// allocation-free map hit) and one lazily built query function per family,
// each owning the connection's reusable accumulator for that family (see
// family.querier) — the served query path inherits the library's zero-alloc
// QueryInto contract.
type connState struct {
	s   *Server
	gen uint64

	sketches map[laneKey]sketch
	lanes    map[laneKey]*laneSet
	queriers [len(families)]queryFunc

	// bs is the connection's reusable batch-completion countdown, re-armed
	// per OpBatch so the served ingest path allocates nothing per batch.
	bs *batchState

	// snapBuf is the connection's reusable snapshot-encode scratch
	// (OpSnapshot responses and OpMergeRemote pulls).
	snapBuf []byte
}

func newConnState(s *Server) *connState {
	return &connState{
		s:        s,
		gen:      s.gen.Load(),
		sketches: make(map[laneKey]sketch),
		lanes:    make(map[laneKey]*laneSet),
		bs:       newBatchState(),
	}
}

func (cs *connState) resetCaches() {
	clear(cs.sketches)
	clear(cs.lanes)
}

// sketch resolves (family, name) to the cached sketch, creating it in the
// registry on first use — same get-or-create semantics as the ingest path.
func (cs *connState) sketch(fam wire.Family, name []byte) (sketch, error) {
	if sk, ok := cs.sketches[laneKey{fam, string(name)}]; ok {
		return sk, nil
	}
	sk, err := families[fam].open(cs.s.reg, string(name), fastsketches.Spec{})
	if err != nil {
		return nil, err
	}
	cs.sketches[laneKey{fam, string(name)}] = sk
	return sk, nil
}

func (cs *connState) laneSet(fam wire.Family, name []byte) (*laneSet, error) {
	if ls, ok := cs.lanes[laneKey{fam, string(name)}]; ok {
		return ls, nil
	}
	ls, err := cs.s.laneSetFor(fam, name)
	if err != nil {
		return nil, err
	}
	cs.lanes[laneKey{fam, string(name)}] = ls
	return ls, nil
}

// serve answers one parsed request, appending the response frame to out.
func (cs *connState) serve(req *wire.Request, out []byte) []byte {
	if g := cs.s.gen.Load(); g != cs.gen {
		cs.resetCaches()
		cs.gen = g
	}
	switch req.Op {
	case wire.OpPing:
		return wire.AppendOK(out, req.ID)

	case wire.OpBatch:
		ls, err := cs.laneSet(req.Family, req.Name)
		if err != nil {
			return wire.AppendError(out, req.ID, err.Error())
		}
		if !ls.ingest(req.Items, cs.bs) {
			// The lane set closed under us (a concurrent Drop). Refresh the
			// cache and retry once onto the recreated sketch.
			cs.resetCaches()
			cs.gen = cs.s.gen.Load()
			ls, err = cs.laneSet(req.Family, req.Name)
			if err == nil && !ls.ingest(req.Items, cs.bs) {
				err = errShuttingDown
			}
			if err != nil {
				return wire.AppendError(out, req.ID, err.Error())
			}
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
		if !cs.s.drop(req.Family, req.Name) {
			return wire.AppendError(out, req.ID, fmt.Sprintf("no %s sketch %q", req.Family, req.Name))
		}
		cs.resetCaches()
		cs.gen = cs.s.gen.Load()
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
