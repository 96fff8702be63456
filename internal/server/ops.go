package server

import (
	"fastsketches/internal/wire"
)

// Ops hooks: the serving layer's face of the lifecycle/observability plane
// (internal/ops). The daemon wires three things here at startup: the
// OpOpsStats responder (SetOps), the per-chunk ingest instrumentation
// (SetIngestObserver), and — on the ops manager's side — DropSketch as the
// manager's Drop hook, so idle-TTL evictions and budget sheds retire
// sketches through the server's quiescing drop path instead of yanking
// them out of the registry under live lane workers.

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

// SetIngestObserver installs the per-chunk ingest instrumentation hook:
// obs(n, d) is called by a lane worker after applying one ingest chunk of
// n items in d nanoseconds. Lane apply closures capture the hook when the
// sketch's lane set is created, so install it before serving traffic;
// lane sets created earlier keep running unobserved.
func (s *Server) SetIngestObserver(obs func(n, d int64)) {
	s.mu.Lock()
	s.ingestObs = obs
	s.mu.Unlock()
}

// DropSketch retires the named sketch through the server's quiescing drop:
// lane workers drain and exit before the registry closes the sketch, and
// every connection's handle cache is invalidated. This is the Drop hook an
// ops.Manager must use when its registry is served by this server — a bare
// Registry.Drop would close the sketch under live lane workers and wedge
// them on a closed sketch's Update. Returns false for an unknown family or
// an unregistered sketch.
func (s *Server) DropSketch(family, name string) bool {
	fam, err := wire.ParseFamily(family)
	if err != nil {
		return false
	}
	return s.drop(fam, []byte(name))
}
