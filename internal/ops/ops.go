// Package ops is the multi-tenant operations layer over a
// fastsketches.Registry: the lifecycle sweeper (idle-TTL eviction and
// memory-budget accounting) plus the Prometheus-text /metrics exposition
// that makes the library's internal wait-free counters — shard counts, live
// relaxation bounds, ingest pressure, view-refresh lag — visible to an
// external scrape.
//
// # Idle eviction
//
// The Manager periodically enumerates the registry and differentiates each
// sketch's cumulative Ingested counter between sweeps. That counter already
// advances exactly once per published writer buffer (one amortised atomic
// add per b items — see core.PressureSample), so idleness tracking adds
// zero cost to the ingest hot path: a sketch whose counter has not moved
// since the last sweep has received no completed updates, and once that
// stillness has lasted its idle TTL (per-sketch Spec.IdleTTL, else the
// sweeper's default) the Manager drops it with Registry.Drop. Dropping
// folds nothing away silently: Drop waits out every claimed writer lane and
// drains every buffer exactly before the sketch closes, so a served
// registry needs no hook of its own. Queries do not refresh the TTL —
// liveness is an ingest-plane property.
//
// # Memory budget
//
// Every sweep also sums each sketch's estimated resident bytes
// (shard.Sharded.SizeBytes: one family-dimensioned accumulator per live
// shard plus retained legacy state). While the total exceeds MemBudget the
// Manager walks the unpinned sketches most-idle-first and reclaims: a
// sketch still striped over more than ShrinkToShards shards is live-resized
// down (the retiring shards' snapshots fold into one compact legacy
// accumulator — compaction, not loss), otherwise it is shed via Drop. An
// active tenant is touched only after shedding every idler tenant still
// left the registry over budget.
//
// # Why the export plane is wait-free toward writers
//
// Every figure the Collector exports is either an atomic counter the hot
// path already maintains (pressure samples, lane histograms) or derived
// state read through one atomic epoch load (shard counts, relaxation,
// sizes). A scrape takes the registry lock only for the brief map snapshot
// in Infos — never while folding or formatting — so writers and queriers
// proceed at full speed under arbitrarily slow scrapers.
package ops

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
)

// Config parameterises a Manager. The zero value disables both eviction
// and budgeting (a Manager then only tracks activity and resident size).
type Config struct {
	// IdleTTL is the default idle-eviction TTL: a sketch with no completed
	// ingest for this long is dropped. 0 disables default eviction —
	// per-sketch Spec.IdleTTL overrides still apply. Negative is rejected.
	IdleTTL time.Duration
	// MemBudget caps the summed estimated resident bytes of all sketches;
	// while over, sweeps shrink or shed unpinned tenants most-idle-first.
	// 0 disables budgeting.
	MemBudget int64
	// SweepEvery is the sweep period of the background loop. Default 5s.
	SweepEvery time.Duration
	// ShrinkToShards is the shard count a budget shrink resizes down to
	// before resorting to shedding. Default 1.
	ShrinkToShards int
	// Clock supplies sweep timing and the idle clock. Default: real time.
	Clock fastsketches.Clock
	// Logf, when set, receives one line per eviction, shrink, and shed.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of a Manager's cumulative counters and latest gauges.
type Stats struct {
	// Sweeps counts completed sweep passes.
	Sweeps int64
	// Evictions counts idle-TTL drops; BudgetSheds counts over-budget
	// drops; BudgetShrinks counts over-budget resize-downs.
	Evictions, BudgetSheds, BudgetShrinks int64
	// ResidentBytes is the summed estimated resident size at the last
	// sweep; BudgetBytes echoes Config.MemBudget (0 = unlimited).
	ResidentBytes, BudgetBytes int64
	// Sketches is the number of registered sketches at the last sweep.
	Sketches int64
}

// SweepResult reports what one sweep pass did.
type SweepResult struct {
	Sketches      int
	Evicted       int
	Shrunk        int
	Shed          int
	ResidentBytes int64
}

// tenantState is the Manager's per-sketch activity record: the last seen
// Ingested counter and the instant it last moved.
type tenantState struct {
	lastIngested int64
	lastActive   time.Time
}

// Manager runs the lifecycle loop: Start launches a background sweeper (or
// call Sweep directly to pace it externally — tests do), Stop halts it.
// One Manager per registry.
type Manager struct {
	reg   *fastsketches.Registry
	cfg   Config
	clock fastsketches.Clock

	mu   sync.Mutex
	seen map[string]*tenantState

	sweeps, evictions, sheds, shrinks atomic.Int64
	resident, sketches                atomic.Int64

	startMu sync.Mutex
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewManager validates cfg and returns an inert Manager over reg.
func NewManager(reg *fastsketches.Registry, cfg Config) (*Manager, error) {
	if cfg.IdleTTL < 0 {
		return nil, fmt.Errorf("ops: negative IdleTTL")
	}
	if cfg.MemBudget < 0 {
		return nil, fmt.Errorf("ops: negative MemBudget")
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = 5 * time.Second
	}
	if cfg.SweepEvery < 0 {
		return nil, fmt.Errorf("ops: negative SweepEvery")
	}
	if cfg.ShrinkToShards == 0 {
		cfg.ShrinkToShards = 1
	}
	if cfg.ShrinkToShards < 1 {
		return nil, fmt.Errorf("ops: ShrinkToShards must be ≥ 1")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	return &Manager{
		reg:   reg,
		cfg:   cfg,
		clock: cfg.Clock,
		seen:  make(map[string]*tenantState),
	}, nil
}

// ResidentBytes returns the summed estimated resident size at the last
// sweep.
func (m *Manager) ResidentBytes() int64 { return m.resident.Load() }

// Stats returns a snapshot of the Manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Sweeps:        m.sweeps.Load(),
		Evictions:     m.evictions.Load(),
		BudgetSheds:   m.sheds.Load(),
		BudgetShrinks: m.shrinks.Load(),
		ResidentBytes: m.resident.Load(),
		BudgetBytes:   m.cfg.MemBudget,
		Sketches:      m.sketches.Load(),
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Sweep runs one lifecycle pass: refresh activity tracking, evict
// TTL-expired idle sketches, then reconcile the memory budget. Safe for
// concurrent use with the registry's full API (and with itself, though one
// pacer is the intended caller).
func (m *Manager) Sweep() SweepResult {
	now := m.clock.Now()
	infos := m.reg.Infos()
	res := SweepResult{Sketches: len(infos)}

	type candidate struct {
		fastsketches.SketchInfo
		idle time.Duration
	}
	var evict, keep []candidate

	m.mu.Lock()
	live := make(map[string]bool, len(infos))
	for _, inf := range infos {
		key := inf.Family + "/" + inf.Name
		live[key] = true
		ts := m.seen[key]
		if ts == nil {
			// First sighting: the idle clock starts now. A sketch created
			// and never written still expires after its TTL.
			ts = &tenantState{lastIngested: inf.Ingested, lastActive: now}
			m.seen[key] = ts
		} else if ts.lastIngested != inf.Ingested {
			ts.lastIngested = inf.Ingested
			ts.lastActive = now
		}
		c := candidate{inf, now.Sub(ts.lastActive)}
		ttl := inf.Spec.IdleTTL
		if ttl == 0 {
			ttl = m.cfg.IdleTTL
		}
		if !inf.Spec.Pinned && ttl > 0 && c.idle >= ttl {
			evict = append(evict, c)
		} else {
			keep = append(keep, c)
		}
	}
	for key := range m.seen {
		if !live[key] {
			delete(m.seen, key) // dropped or evicted since the last sweep
		}
	}
	m.mu.Unlock()

	// Evictions run outside m.mu: Drop waits out claimed lanes and drains
	// propagators.
	for _, c := range evict {
		if m.reg.Drop(c.Family, c.Name) {
			m.evictions.Add(1)
			res.Evicted++
			m.logf("ops: evicted idle %s/%s (idle %v)", c.Family, c.Name, c.idle)
		}
	}

	var resident int64
	for _, c := range keep {
		resident += c.SizeBytes
	}
	if budget := m.cfg.MemBudget; budget > 0 && resident > budget {
		// Most-idle-first: an active tenant is reclaimed only after every
		// idler one; pinned tenants are never touched.
		sort.Slice(keep, func(i, j int) bool { return keep[i].idle > keep[j].idle })
		for _, c := range keep {
			if resident <= budget {
				break
			}
			if c.Spec.Pinned {
				continue
			}
			if c.Spec.Shards > m.cfg.ShrinkToShards {
				if err := m.reg.Apply(c.Family, c.Name, fastsketches.Spec{Shards: m.cfg.ShrinkToShards}); err != nil {
					continue // racing drop/close; the next sweep re-reads
				}
				m.shrinks.Add(1)
				res.Shrunk++
				old := c.SizeBytes
				if inf, ok := m.reg.Info(c.Family, c.Name); ok {
					resident += inf.SizeBytes - old
				}
				m.logf("ops: shrank %s/%s %d→%d shards under memory budget",
					c.Family, c.Name, c.Spec.Shards, m.cfg.ShrinkToShards)
				continue
			}
			if m.reg.Drop(c.Family, c.Name) {
				m.sheds.Add(1)
				res.Shed++
				resident -= c.SizeBytes
				m.logf("ops: shed %s/%s under memory budget (%d bytes back)",
					c.Family, c.Name, c.SizeBytes)
			}
		}
	}
	res.ResidentBytes = resident
	m.resident.Store(resident)
	m.sketches.Store(int64(res.Sketches - res.Evicted - res.Shed))
	m.sweeps.Add(1)
	return res
}

// Run sweeps every SweepEvery on the Manager's Clock until stop closes.
// Exported for callers that own the goroutine; most use Start/Stop.
func (m *Manager) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-m.clock.After(m.cfg.SweepEvery):
			m.Sweep()
		}
	}
}

// Start launches the background sweep loop. It panics if the Manager was
// already started.
func (m *Manager) Start() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.started {
		panic("ops: Manager started twice")
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		m.Run(m.stop)
	}()
}

// Stop halts the background loop and waits for any in-flight sweep to
// finish. Idempotent; a no-op if Start was never called.
func (m *Manager) Stop() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if !m.started || m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
}
