package fastsketches

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fastsketches/internal/autoscale"
	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/shard"
	"fastsketches/internal/wire"
)

// PressureSample is the wait-free cumulative ingest-pressure counter pair
// every sketch exposes (see Handle.Pressure): Ingested counts items handed
// to the propagation plane, Merged items folded into shard snapshots;
// Backlog() is their difference. Both are monotonic across resizes.
type PressureSample = core.PressureSample

// RegistryConfig parameterises a Registry and the sharded sketches it
// creates. The zero value serves 4-shard, single-lane sketches with the
// paper's default accuracy parameters.
type RegistryConfig struct {
	// Shards is S, the number of independent concurrent sketches each named
	// sketch is striped over. More shards buy ingest throughput (one
	// propagator per shard) at the cost of a larger combined staleness
	// window S·r for merged queries. Default 4.
	Shards int
	// Writers is the number of writer lanes per named sketch. Lane l must
	// be driven by at most one goroutine at a time. Default 1.
	Writers int
	// MaxError is the per-shard eager-phase error budget e; each shard
	// answers exactly until its substream exceeds 2/e². 1.0 disables the
	// eager phase. Default 0.04.
	MaxError float64
	// BufferSize overrides the derived per-writer buffer b. The combined
	// relaxation of a merged query is S·2·Writers·b. 0 = derive per family.
	BufferSize int
	// Unoptimised selects the ParSketch variant (r = N·b per shard).
	Unoptimised bool
	// Seed is the hash seed shared by all sketches; 0 means DefaultSeed.
	Seed uint64

	// WindowInterval, when positive, declares a registry-wide default
	// sliding window: every sketch this registry creates starts with a
	// window of WindowSlots closed intervals of this length (see
	// Spec.Window for the per-sketch form and the staleness semantics).
	// Zero means sketches start unwindowed.
	WindowInterval time.Duration
	// WindowSlots is the default window's closed-interval capacity;
	// 0 = the window layer's default. Requires WindowInterval.
	WindowSlots int
	// WindowDecay is the default window's exponential decay factor,
	// applied to Count-Min sketches only (the one family with a decayable
	// counter plane); other families get the sliding window without a
	// decay plane. 0 = no decay. Requires WindowInterval.
	WindowDecay float64

	// ThetaLgK is log2 of the per-shard Θ sample count. Default 12.
	ThetaLgK int
	// HLLPrecision is the per-shard HLL precision p. Default 12.
	HLLPrecision int
	// QuantilesK is the per-shard quantiles summary parameter. Default 128.
	QuantilesK int
	// CountMinEpsilon / CountMinDelta dimension per-shard Count-Min
	// sketches. Defaults 0.001 / 0.01.
	CountMinEpsilon float64
	CountMinDelta   float64
}

func (c *RegistryConfig) normalise() error {
	if c.Shards == 0 {
		c.Shards = shard.DefaultShards
	}
	if c.Shards < 1 {
		return fmt.Errorf("%w: Shards must be ≥ 1", ErrConfig)
	}
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Writers < 0 {
		return fmt.Errorf("%w: negative Writers", ErrConfig)
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	if c.MaxError < 0 {
		return fmt.Errorf("%w: negative MaxError", ErrConfig)
	}
	if c.BufferSize < 0 {
		return fmt.Errorf("%w: negative BufferSize", ErrConfig)
	}
	if c.WindowInterval < 0 {
		return fmt.Errorf("%w: negative WindowInterval", ErrConfig)
	}
	if c.WindowInterval == 0 && (c.WindowSlots != 0 || c.WindowDecay != 0) {
		return fmt.Errorf("%w: WindowSlots/WindowDecay require WindowInterval", ErrConfig)
	}
	if c.WindowInterval > 0 {
		wc := shard.WindowConfig{Interval: c.WindowInterval, Slots: c.WindowSlots, Decay: c.WindowDecay}
		if _, err := wc.Normalise(); err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if c.ThetaLgK == 0 {
		c.ThetaLgK = 12
	}
	if c.ThetaLgK < 2 || c.ThetaLgK > 26 {
		return fmt.Errorf("%w: ThetaLgK %d outside [2,26]", ErrConfig, c.ThetaLgK)
	}
	if c.HLLPrecision == 0 {
		c.HLLPrecision = 12
	}
	if c.HLLPrecision < 4 || c.HLLPrecision > 21 {
		return fmt.Errorf("%w: HLLPrecision %d outside [4,21]", ErrConfig, c.HLLPrecision)
	}
	if c.QuantilesK == 0 {
		c.QuantilesK = 128
	}
	if c.QuantilesK < 2 {
		return fmt.Errorf("%w: QuantilesK must be ≥ 2", ErrConfig)
	}
	if c.CountMinEpsilon == 0 {
		c.CountMinEpsilon = 0.001
	}
	if c.CountMinEpsilon <= 0 || c.CountMinEpsilon >= 1 {
		return fmt.Errorf("%w: CountMinEpsilon must be in (0,1)", ErrConfig)
	}
	if c.CountMinDelta == 0 {
		c.CountMinDelta = 0.01
	}
	if c.CountMinDelta <= 0 || c.CountMinDelta >= 1 {
		return fmt.Errorf("%w: CountMinDelta must be in (0,1)", ErrConfig)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return nil
}

func (c *RegistryConfig) shardConfig() shard.Config {
	return shard.Config{
		Shards:      c.Shards,
		Writers:     c.Writers,
		BufferSize:  c.BufferSize,
		MaxError:    c.MaxError,
		Unoptimised: c.Unoptimised,
		Seed:        c.Seed,
	}
}

// defaultWindow returns the registry-wide default WindowConfig new sketches
// start with, and whether one is declared. decayable gates the decay factor:
// only Count-Min has a scalable counter plane, so other families take the
// sliding window without decay rather than failing to open.
func (c *RegistryConfig) defaultWindow(decayable bool) (shard.WindowConfig, bool) {
	if c.WindowInterval <= 0 {
		return shard.WindowConfig{}, false
	}
	wc := shard.WindowConfig{Interval: c.WindowInterval, Slots: c.WindowSlots}
	if decayable {
		wc.Decay = c.WindowDecay
	}
	return wc, true
}

// Registry is a multi-tenant collection of named sharded sketches: the
// service-facing facade over the concurrent framework. Each name maps to an
// independent sharded sketch created on first use:
//
//	reg, _ := fastsketches.NewRegistry(fastsketches.RegistryConfig{
//		Shards: 8, Writers: 4,
//	})
//	defer reg.Close()
//	users, _ := reg.OpenTheta("users.daily", fastsketches.Spec{})
//	calls, _ := reg.OpenCountMin("api.calls", fastsketches.Spec{})
//	users.Update(lane, userID)             // ingestion path
//	calls.Update(lane, endpoint)
//	est := users.Sketch().Estimate()       // merged live query
//
// Accessors are safe to call from any goroutine (creation is serialised);
// the returned sketches follow the lane discipline of the core framework —
// writer lane l of any sketch must be driven by one goroutine at a time.
// Merged queries are wait-free and may run at any time; each reflects all
// but at most S·2·Writers·b of the updates that completed before it.
//
// Merged queries are also allocation-free steady-state: every named sketch
// owns a sync.Pool of reusable merge accumulators (a theta.Union, an HLL
// register array, a quantiles.Accumulator, a Count-Min counter grid), so
// Estimate/Quantile/Rank/N reset a pooled accumulator and fold the S shard
// snapshots into it instead of allocating per query. Callers that prefer to
// own the accumulator — e.g. one per reader goroutine — use the handle's
// NewAccumulator/QueryInto.
type Registry struct {
	cfg    RegistryConfig
	mu     sync.RWMutex
	closed bool
	// sketches is the one sketch table: every registered sketch of every
	// family, keyed by (family, name).
	sketches map[sketchKey]*entry
	// memPressure is the memory-budget signal installed by
	// SetAutoscaleMemoryPressure, propagated to every attached controller.
	memPressure func() bool

	// ckptMu serialises checkpoint encodes and guards the reusable
	// checkpoint scratch below, so steady-state checkpoints (a periodic
	// Checkpointer) allocate nothing once the scratch has grown to the
	// working size. See checkpoint.go.
	ckptMu      sync.Mutex
	ckptEntries []checkpointEntry
	ckptNameBuf []byte
	ckptBuf     []byte
}

// sketchKey identifies one registered sketch.
type sketchKey struct {
	fam  wire.Family
	name string
}

// sketch is the family-agnostic surface of a sharded sketch that the
// registry's admin, enumeration and checkpoint paths drive; all four family
// wrappers of the shard package satisfy it through the embedded generic
// Sharded layer. Ingest and queries never go through it — a Handle keeps the
// concrete type, so those stay statically dispatched.
type sketch interface {
	autoscale.Target
	Relaxation() int
	Eager() bool
	SizeBytes() int64
	Close()
	EnableView(ViewConfig) error
	DisableView() bool
	ViewLag() time.Duration
	ViewSettings() (ViewConfig, bool)
	EnableWindow(WindowConfig) error
	DisableWindow() bool
	WindowSettings() (WindowConfig, bool)
	WindowStats() (WindowInfo, bool)
	AppendSnapshot([]byte) []byte
	// AppendWindowedSnapshot appends the base blob (everything outside the
	// closed ring slots) and returns the slot and decay-plane blobs captured
	// under the same rotation-consistent hold.
	AppendWindowedSnapshot([]byte) ([]byte, [][]byte, []byte)
	ImportSnapshot([]byte) error
	RestoreWindow(WindowConfig, [][]byte, []byte) error
}

// entry is one registered sketch: the sketch itself plus the per-sketch
// state the registry owns. lc and ctl are guarded by Registry.mu.
type entry struct {
	key sketchKey
	sk  sketch
	// lc is the lifecycle declared through Open*/Spec (idle TTL, pinning),
	// read by the ops layer's eviction and budget sweeps via Infos.
	lc lifecycleSpec
	// ctl is the sketch's autoscale controller, nil when none is attached.
	// Every attach path replaces it, so a sketch never has two; Drop and
	// Close stop it before the sketch's propagators, so a controller can
	// never resize a closing sketch.
	ctl *autoscale.Controller
}

// family is one row of the registry's family table: everything the
// family-agnostic paths need to know about a family. The typed surface — the
// Open* constructors and Handle aliases in handle.go — is the only other
// place a family is named.
type family struct {
	// decayable reports whether the family's accumulator has linearly
	// scalable counters, i.e. whether a window may carry a decay plane.
	decayable bool
	// new builds a fresh sketch from the (pre-validated) registry config.
	new func(c *RegistryConfig) (sketch, error)
}

// families is the family table, indexed by wire.Family (index 0 is unused).
var families = [...]family{
	wire.FamilyTheta: {new: func(c *RegistryConfig) (sketch, error) {
		return shard.NewTheta(c.ThetaLgK, c.shardConfig())
	}},
	wire.FamilyHLL: {new: func(c *RegistryConfig) (sketch, error) {
		return shard.NewHLL(c.HLLPrecision, c.shardConfig())
	}},
	wire.FamilyQuantiles: {new: func(c *RegistryConfig) (sketch, error) {
		return shard.NewQuantiles(c.QuantilesK, c.shardConfig())
	}},
	wire.FamilyCountMin: {decayable: true, new: func(c *RegistryConfig) (sketch, error) {
		return shard.NewCountMin(c.CountMinEpsilon, c.CountMinDelta, c.shardConfig())
	}},
}

// NewRegistry validates the configuration and returns an empty registry.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	return &Registry{cfg: cfg, sketches: make(map[sketchKey]*entry)}, nil
}

// lockOpen takes r.mu exclusively, and rlockOpen shared, for a caller that
// must not run on a closed registry: both panic (with the lock released) once
// Close has run. A sketch handle obtained before Close stays queryable, but
// the registry itself must not hand out or reconfigure sketches whose
// propagators are stopped: an Update on one would block forever.
func (r *Registry) lockOpen() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		panic("fastsketches: Registry used after Close")
	}
}

func (r *Registry) rlockOpen() {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		panic("fastsketches: Registry used after Close")
	}
}

// getOrCreate returns the entry registered under (fam, name), creating the
// sketch from its family row on first use — the accessor behind Open* and
// Restore. The read path is a shared-lock map hit; creation takes the
// exclusive lock. Configuration errors are impossible here: the registry
// config was validated by NewRegistry.
func (r *Registry) getOrCreate(fam wire.Family, name string) *entry {
	key := sketchKey{fam, name}
	r.rlockOpen()
	e := r.sketches[key]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.lockOpen()
	defer r.mu.Unlock()
	if e = r.sketches[key]; e != nil {
		return e
	}
	f := &families[fam]
	sk, err := f.new(&r.cfg)
	if err != nil {
		panic(err) // unreachable: config pre-validated
	}
	if wc, ok := r.cfg.defaultWindow(f.decayable); ok {
		if err := sk.EnableWindow(wc); err != nil {
			panic(err) // unreachable: config pre-validated
		}
	}
	e = &entry{key: key, sk: sk}
	r.sketches[key] = e
	return e
}

// lookup returns the entry of the named sketch of the given family (one of
// "theta", "hll", "quantiles", "countmin") without creating it. The caller
// must hold r.mu (any mode).
func (r *Registry) lookup(family, name string) *entry {
	fam, err := wire.ParseFamily(family)
	if err != nil {
		return nil
	}
	return r.sketches[sketchKey{fam, name}]
}

// namedLocked collects every entry registered under name across all
// families — the targets of the name-spanning admin calls (the wire protocol
// addresses views, windows and autoscaling by name only, with no family
// discriminator). Caller holds r.mu.
func (r *Registry) namedLocked(name string) []*entry {
	var es []*entry
	for fam := range families {
		if e := r.sketches[sketchKey{wire.Family(fam), name}]; e != nil {
			es = append(es, e)
		}
	}
	return es
}

// named is namedLocked under a brief lock, for the admin calls that act on
// the sketches outside it.
func (r *Registry) named(name string) []*entry {
	r.rlockOpen()
	defer r.mu.RUnlock()
	return r.namedLocked(name)
}

// ResizeSketch live-reshards the named sketch of the given family (one of
// "theta", "hll", "quantiles", "countmin") without creating it on a miss —
// the by-family admin resize serving and ops layers use. It returns
// ErrConfig when no such sketch is registered; otherwise it carries exactly
// the Resize semantics documented on Handle.Resize.
func (r *Registry) ResizeSketch(family, name string, shards int) error {
	r.rlockOpen()
	e := r.lookup(family, name)
	r.mu.RUnlock()
	if e == nil {
		return fmt.Errorf("%w: no %s sketch %q to resize", ErrConfig, family, name)
	}
	// Resize outside r.mu: the drain can take a writer-grace period, and
	// holding the registry lock across it would stall Open/Drop/Infos.
	return e.sk.Resize(shards)
}

// ViewConfig configures a materialized merged view — see shard.ViewConfig:
// refresh interval, maximum served staleness, and an injectable clock for
// deterministic pacing in tests.
type ViewConfig = shard.ViewConfig

// WindowConfig declares a sliding window (and, for Count-Min, exponential
// time decay) — see shard.WindowConfig: rotation interval, closed-slot
// capacity, decay factor, and an injectable clock for deterministic pacing
// in tests.
type WindowConfig = shard.WindowConfig

// WindowInfo is a wait-free introspection sample of a sketch's window plane
// — see shard.WindowInfo.
type WindowInfo = shard.WindowInfo

// Clock is the injectable time source shared by view refreshers, window
// rotators, autoscale controllers, the Checkpointer and the ops sweeper.
type Clock = clock.Clock

// ReplaceView materializes the merged state of every sketch currently
// registered under name, across all four families: a background refresher
// per sketch re-folds all shard snapshots every cfg.RefreshEvery and
// publishes the result atomically, after which the per-family queries
// (Estimate, Quantile, Rank, N, QueryInto) transparently fold the single
// published view — O(1) in the shard count — instead of S shard snapshots.
// The staleness bound of those queries widens from S·r to S·r plus one
// refresh interval; per-key CountMin estimates keep reading their owning
// shard directly and are unaffected. Returns how many sketches gained a
// view.
//
// Only sketches that already exist are covered. The call is idempotent per
// sketch: a sketch whose view is already enabled is re-armed under the new
// config (its old refresher is stopped first) — the replace-not-stack
// semantics remote admin planes need, mirroring ReplaceAutoscale. Views are
// disabled automatically when their sketch is dropped or the registry
// closes; like every registry accessor, ReplaceView panics after Close.
func (r *Registry) ReplaceView(name string, cfg ViewConfig) (int, error) {
	targets := r.named(name)
	if len(targets) == 0 {
		return 0, fmt.Errorf("%w: no registered sketches to view", ErrConfig)
	}
	// Enabling outside r.mu: EnableView serialises on each sketch's resize
	// lock, which an in-flight autoscale Resize may hold for a drain.
	for _, e := range targets {
		e.sk.DisableView()
		if err := e.sk.EnableView(cfg); err != nil {
			return 0, err
		}
	}
	return len(targets), nil
}

// StopView stops the view refresher of every sketch registered under
// name, across all families, and reports how many views were disabled.
// Subsequent merged queries fold live shard snapshots again (bound back to
// S·r). It mirrors StopAutoscale.
func (r *Registry) StopView(name string) int {
	n := 0
	for _, e := range r.named(name) {
		if e.sk.DisableView() {
			n++
		}
	}
	return n
}

// ReplaceWindow declares a sliding window on every sketch currently
// registered under name, across all four families: each sketch's queries
// gain a windowed plane (WindowQueryInto and the per-family Window* scalars)
// covering the live rotation interval plus the last cfg.Slots closed
// intervals, while the cumulative plane keeps serving the whole stream. A
// windowed query reflects all but at most S·r of the window's updates plus
// whatever the live interval has accumulated past one rotation interval —
// see shard.Sharded.EnableWindow for the bound's derivation.
//
// The call is idempotent per sketch with replace semantics, mirroring
// ReplaceView: a sketch already windowed under an equal config keeps its
// ring (no history loss); a different config collapses the old window into
// the cumulative plane and re-arms a fresh one. Returns how many sketches
// the window was applied to. Windows stop automatically when their sketch
// is dropped or the registry closes.
func (r *Registry) ReplaceWindow(name string, cfg WindowConfig) (int, error) {
	if _, err := cfg.Normalise(); err != nil {
		return 0, err
	}
	targets := r.named(name)
	if len(targets) == 0 {
		return 0, fmt.Errorf("%w: no registered sketches to window", ErrConfig)
	}
	for _, e := range targets {
		// Decay needs linearly scalable counters; for families without them
		// the same window is applied sans decay, mirroring
		// RegistryConfig.WindowDecay — and compared sans decay, so repeated
		// calls stay idempotent per family.
		cfgSk := cfg
		if !families[e.key.fam].decayable {
			cfgSk.Decay = 0
		}
		if err := replaceWindow(e.sk, cfgSk); err != nil {
			return 0, err
		}
	}
	return len(targets), nil
}

// replaceWindow declares cfg on one sketch with replace semantics: an equal
// declaration is a no-op, so routinely re-declaring a window never discards
// its ring of closed intervals; only a changed config re-arms (collapse into
// the cumulative plane, fresh ring). It runs outside r.mu: EnableWindow
// serialises on the sketch's resize lock, which an in-flight autoscale
// Resize may hold for a drain.
func replaceWindow(sk sketch, cfg WindowConfig) error {
	want, err := cfg.Normalise()
	if err != nil {
		return err
	}
	if cur, ok := sk.WindowSettings(); ok && cur.Same(want) {
		return nil
	}
	sk.DisableWindow()
	return sk.EnableWindow(cfg)
}

// StopWindow disables the sliding window of every sketch registered under
// name, across all families, and reports how many windows were stopped.
// Each window's closed slots are collapsed into the sketch's cumulative
// plane first, so no counted update is lost; subsequent queries serve the
// cumulative stream only. It mirrors StopView.
func (r *Registry) StopWindow(name string) int {
	n := 0
	for _, e := range r.named(name) {
		if e.sk.DisableWindow() {
			n++
		}
	}
	return n
}

// SetAutoscaleMemoryPressure installs f as the memory-budget signal on
// every attached autoscale controller, current and future: while f reports
// true, controllers veto scale-ups and treat quiet samples as
// down-pressure (see autoscale.Controller.SetMemoryPressure). The ops
// layer's budget accountant installs it so the budget acts through the
// control loop before the accountant has to shed. Pass nil to remove the
// signal.
func (r *Registry) SetAutoscaleMemoryPressure(f func() bool) {
	r.mu.Lock()
	r.memPressure = f
	var ctls []*autoscale.Controller
	for _, e := range r.sketches {
		if e.ctl != nil {
			ctls = append(ctls, e.ctl)
		}
	}
	r.mu.Unlock()
	for _, ctl := range ctls {
		ctl.SetMemoryPressure(f)
	}
}

// AutoscaleStats returns a live counter snapshot of the autoscale
// controller attached to the named sketch of the given family, reporting
// ok=false when the sketch has no controller (or does not exist).
func (r *Registry) AutoscaleStats(family, name string) (autoscale.Stats, bool) {
	r.mu.RLock()
	var ctl *autoscale.Controller
	if e := r.lookup(family, name); e != nil {
		ctl = e.ctl
	}
	r.mu.RUnlock()
	if ctl == nil {
		return autoscale.Stats{}, false
	}
	return ctl.Stats(), true
}

// StopAutoscale stops and detaches the autoscaling controller of every
// sketch currently registered under name, across all families, and reports
// how many were stopped.
func (r *Registry) StopAutoscale(name string) int {
	r.lockOpen()
	var stop []*autoscale.Controller
	for _, e := range r.namedLocked(name) {
		if e.ctl != nil {
			stop = append(stop, e.ctl)
			e.ctl = nil
		}
	}
	r.mu.Unlock()
	for _, ctl := range stop {
		ctl.Stop()
	}
	return len(stop)
}

// ReplaceAutoscale atomically swaps the autoscaling of name: under one
// registry lock acquisition it builds a fresh controller under the new
// policy for every sketch registered under the name and swaps it in for the
// one attached before (if any), so concurrent or retried calls can never
// leave two controllers driving one sketch — the idempotent attach remote
// admin planes need. The replaced controllers are stopped after the swap;
// their loops may overlap the new ones for that stop latency (harmless
// under the policies' cooldowns). On a policy validation error nothing is
// swapped: the previous controllers stay attached.
func (r *Registry) ReplaceAutoscale(name string, p autoscale.Policy) ([]*autoscale.Controller, error) {
	r.lockOpen()
	targets := r.namedLocked(name)
	if len(targets) == 0 {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: no registered sketches to autoscale", ErrConfig)
	}
	// Build every controller before swapping any, so a bad policy attaches
	// nothing rather than half a fleet.
	ctls := make([]*autoscale.Controller, len(targets))
	for i, e := range targets {
		ctl, err := autoscale.New(e.sk, p)
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		ctls[i] = ctl
	}
	replaced := make([]*autoscale.Controller, len(targets))
	for i, e := range targets {
		replaced[i] = r.swapControllerLocked(e, ctls[i])
	}
	r.mu.Unlock()
	for _, ctl := range replaced {
		if ctl != nil {
			ctl.Stop()
		}
	}
	return ctls, nil
}

// swapControllerLocked makes ctl the (started) controller of e and returns
// the one it replaced, nil if none; the caller stops that one outside r.mu.
// Caller holds r.mu.
func (r *Registry) swapControllerLocked(e *entry, ctl *autoscale.Controller) (replaced *autoscale.Controller) {
	if r.memPressure != nil {
		ctl.SetMemoryPressure(r.memPressure)
	}
	replaced, e.ctl = e.ctl, ctl
	ctl.Start()
	return replaced
}

// attachController replaces the autoscale controller of one specific
// sketch: a fresh started one under p takes over, and the controller it
// replaces (if any) is stopped — so Spec.Autoscale, Handle.Autoscale and a
// Restore into a registry with live controllers swap rather than stack (no
// goroutine leak). On a policy validation error the previous controller
// stays attached. A sketch that was dropped meanwhile is refused: nothing
// would ever stop its controller.
func (r *Registry) attachController(e *entry, p autoscale.Policy) error {
	ctl, err := autoscale.New(e.sk, p)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed || r.sketches[e.key] != e {
		r.mu.Unlock()
		return fmt.Errorf("%w: autoscale on a dropped or closed sketch %s/%s", ErrConfig, e.key.fam, e.key.name)
	}
	replaced := r.swapControllerLocked(e, ctl)
	r.mu.Unlock()
	if replaced != nil {
		replaced.Stop()
	}
	return nil
}

// detachController stops and detaches the controller driving e, reporting
// how many (0 or 1) were stopped — Handle.StopAutoscale.
func (r *Registry) detachController(e *entry) int {
	r.lockOpen()
	ctl := e.ctl
	e.ctl = nil
	r.mu.Unlock()
	if ctl == nil {
		return 0
	}
	ctl.Stop()
	return 1
}

// Config returns a copy of the registry's normalised configuration — the
// geometry (shard and writer-lane counts) and family accuracy parameters
// every sketch it creates inherits. Serving layers use it to dimension
// per-connection state: all sketches of one family share accumulator
// dimensions, because those depend only on this configuration.
func (r *Registry) Config() RegistryConfig { return r.cfg }

// SketchInfo is one registered sketch's metadata: its identity, its current
// shard/lane geometry, and its live staleness bounds. Relaxation is the
// merged-query bound S·r (transiently S_old·r + S_new·r while a resize
// drains); ShardRelaxation is the single-shard bound r governing per-key
// queries.
type SketchInfo struct {
	Family          string
	Name            string
	Shards          int
	Writers         int
	Relaxation      int
	ShardRelaxation int
	Eager           bool
	// ViewEnabled reports whether a materialized merged view is serving this
	// sketch's aggregate queries; ViewLag is the age of its latest published
	// refresh — the extra term on top of Relaxation in the query-staleness
	// bound. Zero when no view is enabled.
	ViewEnabled bool
	ViewLag     time.Duration
	// WindowEnabled reports whether a sliding window is declared on this
	// sketch; the remaining Window fields echo its shape and liveness (see
	// shard.WindowInfo): rotation count since enable, the live interval's
	// age, and how far the live interval has outlived the declared interval
	// (0 while the rotator keeps up). Zero values when no window is enabled.
	WindowEnabled     bool
	WindowInterval    time.Duration
	WindowSlots       int
	WindowDecay       float64
	WindowRotations   uint64
	WindowLiveAge     time.Duration
	WindowRotationLag time.Duration
	// Ingested / Merged / Backlog are the sketch's wait-free cumulative
	// pressure counters (see PressureSample), monotonic across resizes:
	// items handed to the propagation plane, items folded into shard
	// snapshots, and their difference. The ops layer differentiates
	// successive Ingested readings into the idle-eviction signal.
	Ingested, Merged, Backlog int64
	// SizeBytes is the sketch's estimated resident heap footprint — the
	// unit the memory-budget accountant sums (see shard.Sharded.SizeBytes).
	SizeBytes int64
	// IdleTTL and Pinned echo the lifecycle declared through Open*/Spec:
	// the per-sketch idle-eviction override (0 = use the sweeper's default)
	// and whether eviction/shedding must skip this sketch entirely.
	IdleTTL time.Duration
	Pinned  bool
}

// lifecycleSpec is the per-sketch lifecycle state declared through Spec.
type lifecycleSpec struct {
	idleTTL time.Duration
	pinned  bool
}

// infoEntry is the under-lock snapshot Info and Infos take: the entry and a
// copy of its lifecycle record. Everything else — every per-sketch
// introspection call and the final sort — happens outside the registry
// lock, so a slow enumeration (a /metrics scrape walking thousands of
// sketches) can never stall Open/Drop.
type infoEntry struct {
	e  *entry
	lc lifecycleSpec
}

func (r *Registry) info(ie infoEntry) SketchInfo {
	sk := ie.e.sk
	pr := sk.Pressure()
	_, viewEnabled := sk.ViewSettings()
	si := SketchInfo{
		Family: ie.e.key.fam.String(), Name: ie.e.key.name,
		Shards: sk.Shards(), Writers: r.cfg.Writers,
		Relaxation:      sk.Relaxation(),
		ShardRelaxation: sk.ShardRelaxation(),
		Eager:           sk.Eager(),
		ViewEnabled:     viewEnabled,
		ViewLag:         sk.ViewLag(),
		Ingested:        pr.Ingested,
		Merged:          pr.Merged,
		Backlog:         pr.Backlog(),
		SizeBytes:       sk.SizeBytes(),
		IdleTTL:         ie.lc.idleTTL,
		Pinned:          ie.lc.pinned,
	}
	// WindowStats is wait-free (one epoch load plus a clock read), keeping
	// the rule that info() never takes a lock or folds sketch state — a
	// metrics scrape walking thousands of sketches must not stall rotations.
	if wi, ok := sk.WindowStats(); ok {
		si.WindowEnabled = true
		si.WindowInterval = wi.Interval
		si.WindowSlots = wi.Slots
		si.WindowDecay = wi.Decay
		si.WindowRotations = wi.Rotations
		si.WindowLiveAge = wi.LiveAge
		si.WindowRotationLag = wi.RotationLag
	}
	return si
}

// Info returns the named sketch's metadata without creating it. Family is
// one of "theta", "hll", "quantiles", "countmin" (the prefixes Names uses).
func (r *Registry) Info(family, name string) (SketchInfo, bool) {
	r.mu.RLock()
	e := r.lookup(family, name)
	if e == nil {
		r.mu.RUnlock()
		return SketchInfo{}, false
	}
	ie := infoEntry{e, e.lc}
	r.mu.RUnlock()
	return r.info(ie), true
}

// Infos returns every registered sketch's metadata, sorted by family then
// name — the enumeration hook serving layers expose as their admin listing
// and the ops layer walks every metrics scrape and sweep. Only the map
// snapshot happens under the registry lock; the per-sketch introspection
// (pressure loads, size estimates, view lag) and the sort run outside it,
// so a slow enumeration cannot stall Open/Drop. A sketch dropped
// concurrently may still appear in the result — its counters summarise its
// final drained state, the same staleness any enumeration has.
func (r *Registry) Infos() []SketchInfo {
	r.mu.RLock()
	entries := make([]infoEntry, 0, len(r.sketches))
	for _, e := range r.sketches {
		entries = append(entries, infoEntry{e, e.lc})
	}
	r.mu.RUnlock()
	out := make([]SketchInfo, len(entries))
	for i, ie := range entries {
		out[i] = r.info(ie)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Drop closes and removes the named sketch of the given family, reporting
// whether it existed: its propagators stop (after an exact drain of every
// buffer), an autoscaling controller attached to it is stopped first, and
// the name becomes free — the next accessor call under it creates a fresh,
// empty sketch. Handles retained by callers stay queryable (merged queries
// are wait-free and summarise the final drained state) but must not be
// updated: an Update on a dropped sketch blocks forever, the same contract
// as Close. Like every registry accessor it panics after Close.
func (r *Registry) Drop(family, name string) bool {
	r.lockOpen()
	e := r.lookup(family, name)
	if e == nil {
		r.mu.Unlock()
		return false
	}
	delete(r.sketches, e.key)
	ctl := e.ctl
	e.ctl = nil
	r.mu.Unlock()
	// Stop the sketch's controller before its propagators: a live
	// controller mid-Tick could otherwise ask a closing sketch to resize.
	if ctl != nil {
		ctl.Stop()
	}
	e.sk.Close()
	return true
}

// Names lists every registered sketch, sorted, as "family/name". Like
// Infos, only the map walk runs under the registry lock; the string
// concatenations and the sort happen outside it.
func (r *Registry) Names() []string {
	r.mu.RLock()
	keys := make([]sketchKey, 0, len(r.sketches))
	for k := range r.sketches {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.fam.String() + "/" + k.name
	}
	sort.Strings(out)
	return out
}

// Close stops every sketch's propagators and drains all buffers; afterwards
// merged queries summarise their full streams exactly. The registry must
// not be used after Close. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	// Controllers first: a stopped controller issues no further resizes, so
	// no propagator can be asked to drain mid-shutdown.
	for _, e := range r.sketches {
		if e.ctl != nil {
			e.ctl.Stop()
		}
	}
	for _, e := range r.sketches {
		e.sk.Close()
	}
}
