package server

import (
	"fastsketches/internal/wire"
)

// Ops hooks: the serving layer's face of the lifecycle/observability plane
// (internal/ops). The daemon wires two things here at startup: the
// OpOpsStats responder (SetOps) and the per-batch ingest instrumentation
// (SetIngestObserver). The ops manager's evictions and budget sheds need no
// hook: they are plain Registry.Drop calls, which wait out the lanes
// connections hold, and a connection notices the drop on its next request.

// SetOps installs the function OpOpsStats invokes — typically a bound
// adapter over ops.Manager.Stats. A nil (or never-set) hook makes
// OpOpsStats answer with a typed error.
func (s *Server) SetOps(fn func() wire.OpsStats) {
	s.mu.Lock()
	s.opsStats = fn
	s.mu.Unlock()
}

func (s *Server) opsStatsFn() func() wire.OpsStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opsStats
}

// SetIngestObserver installs the per-batch ingest instrumentation hook:
// obs(n, d) is called after the updates of one OpBatch of n items took d
// nanoseconds on its claimed lane. It takes effect from the next batch on,
// for every sketch; nil removes it.
func (s *Server) SetIngestObserver(obs func(n, d int64)) {
	if obs == nil {
		s.ingestObs.Store(nil)
		return
	}
	s.ingestObs.Store(&obs)
}
