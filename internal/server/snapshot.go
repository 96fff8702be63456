package server

import (
	"fmt"
	"net"
	"time"

	"fastsketches/internal/snapshot"
	"fastsketches/internal/wire"
)

// Snapshot/restore/remote-merge op handlers: the served face of the
// registry's checkpoint plane. OpSnapshot exports one sketch's merged state
// as a portable record; OpRestore folds such a record into a (possibly
// fresh) local sketch; OpMergeRemote makes this daemon dial a peer, pull
// the peer's snapshot for the same (family, name), and fold it in — the
// one-round-trip building block for cross-daemon sketch aggregation.
// OpCheckpoint (served in serve()) triggers the process-level checkpoint
// hook installed via SetCheckpoint.

// mergeRemoteTimeout bounds the whole remote pull: dial plus one
// request/response round trip.
const mergeRemoteTimeout = 10 * time.Second

// SetCheckpoint installs the function OpCheckpoint invokes — typically a
// bound Checkpointer.CheckpointNow writing the daemon's checkpoint file.
// A nil (or never-set) hook makes OpCheckpoint answer with a typed error.
func (s *Server) SetCheckpoint(fn func() error) {
	s.mu.Lock()
	s.ckpt = fn
	s.mu.Unlock()
}

func (s *Server) checkpointFn() func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckpt
}

// snapshot serves OpSnapshot: export the named sketch's merged state
// (legacy ∪ draining ∪ current, all but ≤ S·r acked updates) as a portable
// snapshot record in the OK body. Unlike ingest/query, OpSnapshot does not
// create absent sketches — exporting an implicitly created empty sketch
// would mask typos silently.
func (cs *connState) snapshot(req *wire.Request, out []byte) []byte {
	if _, ok := cs.s.reg.Info(req.Family.String(), string(req.Name)); !ok {
		return wire.AppendError(out, req.ID,
			fmt.Sprintf("no %s sketch %q", req.Family, req.Name))
	}
	sk, err := cs.sketch(req.Family, req.Name)
	if err != nil {
		return wire.AppendError(out, req.ID, err.Error())
	}
	rec := snapshot.Record{
		Family: req.Family,
		Name:   req.Name,
		Spec:   wire.Spec{Shards: sk.Shards()},
	}
	buf, m := snapshot.BeginPortable(cs.snapBuf[:0], &rec)
	buf = sk.AppendSnapshot(buf)
	cs.snapBuf = snapshot.EndRecord(buf, m)
	if len(cs.snapBuf) > wire.MaxBlob {
		return wire.AppendError(out, req.ID, wire.ErrBlobTooLarge.Error())
	}
	return wire.AppendOKBytes(out, req.ID, cs.snapBuf)
}

// restore serves OpRestore: fold the portable record in the request blob
// into the named local sketch (see importPortable).
func (cs *connState) restore(req *wire.Request, out []byte) []byte {
	if err := cs.importPortable(req, req.Blob); err != nil {
		return wire.AppendError(out, req.ID, err.Error())
	}
	return wire.AppendOK(out, req.ID)
}

// mergeRemote serves OpMergeRemote: pull (family, name)'s snapshot from the
// peer at req.Addr and fold it into the local sketch of the same name. The
// local sketch is created if absent; the peer must already have one (its
// OpSnapshot handler rejects absent sketches).
func (cs *connState) mergeRemote(req *wire.Request, out []byte) []byte {
	blob, err := fetchSnapshot(string(req.Addr), req.Family, req.Name)
	if err == nil {
		err = cs.importPortable(req, blob)
	}
	if err != nil {
		return wire.AppendError(out, req.ID,
			fmt.Sprintf("merge from %s: %v", req.Addr, err))
	}
	return wire.AppendOK(out, req.ID)
}

// importPortable parses a portable snapshot record and folds it into the
// local sketch the request names (created if absent). Only the sketch body
// is folded — the record's Spec is ignored, so an import never resizes or
// reconfigures the receiving sketch.
func (cs *connState) importPortable(req *wire.Request, blob []byte) error {
	rec, err := snapshot.ParsePortable(blob)
	if err != nil {
		return err
	}
	if rec.Family != req.Family {
		return fmt.Errorf("snapshot family %s does not match request family %s",
			rec.Family, req.Family)
	}
	sk, err := cs.sketch(req.Family, req.Name)
	if err != nil {
		return err
	}
	return sk.ImportSnapshot(rec.Blob)
}

// fetchSnapshot dials a peer daemon with raw wire frames and returns the
// portable snapshot body its OpSnapshot handler served. Raw frames rather
// than the client package: internal/server cannot import the public client
// without a cycle, and one request/response pair doesn't need one.
func fetchSnapshot(addr string, fam wire.Family, name []byte) ([]byte, error) {
	nc, err := net.DialTimeout("tcp", addr, mergeRemoteTimeout)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(mergeRemoteTimeout)); err != nil {
		return nil, err
	}
	frame := wire.AppendSnapshotReq(nil, 1, fam, string(name))
	if _, err := nc.Write(frame); err != nil {
		return nil, err
	}
	var in []byte
	payload, err := wire.ReadFrame(nc, &in)
	if err != nil {
		return nil, err
	}
	status, _, body, err := wire.ParseResponse(payload)
	if err != nil {
		return nil, err
	}
	if status != wire.StatusOK {
		return nil, fmt.Errorf("peer error: %s", body)
	}
	return body, nil
}
