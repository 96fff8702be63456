package server

import (
	"fmt"

	"fastsketches/internal/snapshot"
	"fastsketches/internal/wire"
)

// Snapshot/restore op handlers: the served face of the registry's
// checkpoint plane. OpSnapshot exports one sketch's merged state as a
// portable record; OpRestore folds such a record into a (possibly fresh)
// local sketch. A client merges sketches across daemons with the two: a
// Snapshot on the peer, then a Restore here — the daemon itself dials no
// one. OpCheckpoint (served in serve()) triggers the process-level
// checkpoint hook installed via SetCheckpoint.

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

// restore serves OpRestore: parse the portable record in the request blob
// and fold it into the named local sketch (created if absent). Only the
// sketch body is folded — the record's Spec is ignored, so a restore never
// resizes or reconfigures the receiving sketch.
func (cs *connState) restore(req *wire.Request, out []byte) []byte {
	if err := cs.importPortable(req); err != nil {
		return wire.AppendError(out, req.ID, err.Error())
	}
	return wire.AppendOK(out, req.ID)
}

func (cs *connState) importPortable(req *wire.Request) error {
	rec, err := snapshot.ParsePortable(req.Blob)
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
