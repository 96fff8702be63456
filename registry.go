package fastsketches

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/core"
	"fastsketches/internal/shard"
	"fastsketches/internal/snapshot"
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
	// sketch is striped over. A merged query over S shards may miss up to
	// S·r updates, so S trades staleness for per-shard independence; a
	// Spec or Resize changes it per sketch. Default 4.
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
		Shards:     c.Shards,
		Writers:    c.Writers,
		BufferSize: c.BufferSize,
		MaxError:   c.MaxError,
		Seed:       c.Seed,
	}
}

// forFamily returns spec with a window Decay dropped when fam cannot decay:
// only Count-Min has a scalable counter plane, so one declaration covers a
// mixed name, the other families taking the sliding window without decay.
func forFamily(spec Spec, fam wire.Family) Spec {
	if w := spec.Window; w != nil && w.Decay != 0 && !fam.Decayable() {
		nw := *w
		nw.Decay = 0
		spec.Window = &nw
	}
	return spec
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

	// ckptMu serialises checkpoint encodes and guards the reusable
	// checkpoint scratch below, so steady-state checkpoints (a periodic
	// Checkpointer) allocate nothing once the scratch has grown to the
	// working size. See checkpoint.go.
	ckptMu      sync.Mutex
	ckptEntries []infoEntry
	ckptNameBuf []byte
	ckptBuf     []byte

	// defaults is the Spec every sketch is created with: the registry-wide
	// default window (RegistryConfig.Window*), or nothing.
	defaults Spec
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
	Shards() int
	Resize(shards int) error
	Pressure() core.PressureSample
	ShardRelaxation() int
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
// state the registry owns. lc is guarded by Registry.mu.
type entry struct {
	key sketchKey
	sk  sketch
	// lc is the lifecycle declared through Open*/Spec (idle TTL, pinning),
	// read by the ops layer's eviction and budget sweeps via Infos.
	lc lifecycleSpec
}

// family is one row of the registry's family table: everything the
// family-agnostic paths need to know about a family. The typed surface — the
// Open* constructors and Handle aliases in handle.go — is the only other
// place a family is named.
type family struct {
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
	wire.FamilyCountMin: {new: func(c *RegistryConfig) (sketch, error) {
		return shard.NewCountMin(c.CountMinEpsilon, c.CountMinDelta, c.shardConfig())
	}},
}

// NewRegistry validates the configuration and returns an empty registry.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg, sketches: make(map[sketchKey]*entry)}
	if cfg.WindowInterval > 0 {
		r.defaults.Window = &WindowConfig{Interval: cfg.WindowInterval, Slots: cfg.WindowSlots, Decay: cfg.WindowDecay}
	}
	return r, nil
}

// lockOpen takes r.mu exclusively, and rlockOpen shared, for a caller that
// must not run on a closed registry: both panic (with the lock released) once
// Close has run. A sketch handle obtained before Close stays queryable, but
// the registry itself must not hand out or reconfigure sketches whose
// propagators are stopped: an Update on a pinned lane of one would block
// forever.
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
	sk, err := families[fam].new(&r.cfg)
	if err != nil {
		panic(err) // unreachable: config pre-validated
	}
	e = &entry{key: key, sk: sk}
	// The defaults declare a window at most, so apply configures the sketch
	// without taking r.mu, before any other goroutine can see it.
	if err := r.apply(e, forFamily(r.defaults, fam), nil); err != nil {
		panic(err) // unreachable: config pre-validated
	}
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
// rotators, the Checkpointer and the ops sweeper.
type Clock = clock.Clock

// Apply applies spec to the named sketch of the given family (one of
// "theta", "hll", "quantiles", "countmin"), or with family "" to every
// sketch registered under name, and creates none — the existing-only
// counterpart of Open*, and what a remote admin plane or the ops layer uses
// to reconfigure tenants it did not open. With family "", a window Decay is
// dropped for the families that cannot decay, so one declaration covers a
// mixed name. It returns ErrConfig when spec is invalid or nothing is
// registered under the name; otherwise each sketch is configured exactly as
// Open* would (see Spec). Like every registry accessor it panics after
// Close.
func (r *Registry) Apply(family, name string, spec Spec) error {
	var fam wire.Family // 0: every family registered under name
	if family != "" {
		f, err := wire.ParseFamily(family)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConfig, err)
		}
		fam = f
	}
	if err := spec.Validate(fam); err != nil {
		return err
	}
	r.rlockOpen()
	var targets []*entry
	for f := range families {
		if fam == 0 || wire.Family(f) == fam {
			if e := r.sketches[sketchKey{wire.Family(f), name}]; e != nil {
				targets = append(targets, e)
			}
		}
	}
	r.mu.RUnlock()
	if len(targets) == 0 {
		return fmt.Errorf("%w: no sketch %q to apply a Spec to", ErrConfig, name)
	}
	for _, e := range targets {
		if err := r.apply(e, forFamily(spec, e.key.fam), nil); err != nil {
			return err
		}
	}
	return nil
}

// apply is the only code that changes a sketch's configuration. It applies
// a validated spec to e, plane by plane, in one fixed order:
//
//	shards → window → view → lifecycle
//
// The window precedes the view because EnableView publishes its first view
// synchronously, and that fold must already see the window's ring. rec is
// non-nil when restoring a checkpoint record: the window is then rebuilt
// from the record's slot blobs instead of re-armed empty, and any window
// already running collapses into the cumulative plane first, so no count is
// lost. The sketch planes run outside r.mu — they serialise on the sketch's
// own resize lock — and only the lifecycle record takes it, briefly.
func (r *Registry) apply(e *entry, spec Spec, rec *snapshot.Record) error {
	sk := e.sk
	if spec.Shards > 0 {
		if err := sk.Resize(spec.Shards); err != nil {
			return err
		}
	}
	if w := spec.Window; w != nil {
		// Replace semantics: an equal declaration keeps the running ring, so
		// re-declaring a window never discards its closed intervals.
		want, _ := w.Normalise()
		if cur, ok := sk.WindowSettings(); rec != nil || !ok || !cur.Same(want) {
			sk.DisableWindow()
			var err error
			if rec != nil {
				err = sk.RestoreWindow(*w, rec.WindowSlotBlobs, rec.WindowDecayedBlob)
			} else {
				err = sk.EnableWindow(*w)
			}
			if err != nil {
				return err
			}
		}
	} else if spec.WindowOff {
		sk.DisableWindow()
	}
	if spec.View != nil || spec.ViewOff {
		sk.DisableView()
	}
	if spec.View != nil {
		if err := sk.EnableView(*spec.View); err != nil {
			return err
		}
	}
	if spec.IdleTTL == 0 && !spec.Pinned {
		return nil
	}
	// The lifecycle is registry state, recorded only while e is still the
	// registered sketch: after a Drop it dies with the sketch instead of
	// leaking onto whatever is opened under the name next.
	r.mu.Lock()
	if !r.closed && r.sketches[e.key] == e {
		e.lc = lifecycleSpec{spec.IdleTTL, spec.Pinned}
	}
	r.mu.Unlock()
	return nil
}

// Config returns a copy of the registry's normalised configuration — the
// geometry (shard and writer-lane counts) and family accuracy parameters
// every sketch it creates inherits. Serving layers use it to dimension
// per-connection state: all sketches of one family share accumulator
// dimensions, because those depend only on this configuration.
func (r *Registry) Config() RegistryConfig { return r.cfg }

// SketchInfo is one registered sketch's metadata: its identity, the Spec in
// force, and its live stats. Relaxation is the merged-query bound S·r
// (transiently S_old·r + S_new·r while a resize drains); ShardRelaxation is
// the single-shard bound r governing per-key queries.
type SketchInfo struct {
	Family string
	Name   string
	// Spec is the configuration in force: the live shard count, the view,
	// and window planes that are on (normalised, defaults filled)
	// and the declared lifecycle. A checkpoint record stores exactly this
	// Spec beside the sketch's blobs.
	Spec            Spec
	Writers         int
	Relaxation      int
	ShardRelaxation int
	Eager           bool
	// ViewLag is the age of the view's latest published refresh — the extra
	// term on top of Relaxation in the query-staleness bound. Zero with no
	// view.
	ViewLag time.Duration
	// WindowRotations, WindowLiveAge and WindowRotationLag sample the
	// window's liveness (see shard.WindowInfo): rotations since enable, the
	// live interval's age, and how far it has outlived the declared interval
	// (0 while the rotator keeps up). Zero with no window.
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
}

// lifecycleSpec is the per-sketch lifecycle state declared through Spec.
type lifecycleSpec struct {
	idleTTL time.Duration
	pinned  bool
}

// infoEntry is the under-lock snapshot Info, Infos and the checkpoint
// encoder take: the entry and a copy of its registry-owned lifecycle
// record. Everything else — every per-sketch
// introspection call and the final sort — happens outside the registry
// lock, so a slow enumeration (a /metrics scrape walking thousands of
// sketches) can never stall Open/Drop.
type infoEntry struct {
	e  *entry
	lc lifecycleSpec
}

// planes is the storage a Spec in force points its planes into.
type planes struct {
	window WindowConfig
	view   ViewConfig
}

// spec assembles the Spec in force: the live shard count, view and window
// settings and the lifecycle record. Its planes
// point into pl, so a caller keeping pl on its stack assembles it without
// allocating. Every read is wait-free — an epoch or config pointer load —
// so a scrape never stalls a rotation or a resize.
func (ie *infoEntry) spec(pl *planes) Spec {
	sk := ie.e.sk
	s := Spec{Shards: sk.Shards(), IdleTTL: ie.lc.idleTTL, Pinned: ie.lc.pinned}
	var ok bool
	if pl.window, ok = sk.WindowSettings(); ok {
		s.Window = &pl.window
	}
	if pl.view, ok = sk.ViewSettings(); ok {
		s.View = &pl.view
	}
	return s
}

func (r *Registry) info(ie infoEntry) SketchInfo {
	sk := ie.e.sk
	pr := sk.Pressure()
	si := SketchInfo{
		Family: ie.e.key.fam.String(), Name: ie.e.key.name,
		Spec:            ie.spec(new(planes)),
		Writers:         r.cfg.Writers,
		Relaxation:      sk.Relaxation(),
		ShardRelaxation: sk.ShardRelaxation(),
		Eager:           sk.Eager(),
		ViewLag:         sk.ViewLag(),
		Ingested:        pr.Ingested,
		Merged:          pr.Merged,
		Backlog:         pr.Backlog(),
		SizeBytes:       sk.SizeBytes(),
	}
	if wi, ok := sk.WindowStats(); ok {
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
// buffer), and the name becomes free — the next accessor call under it creates a fresh,
// empty sketch. Handles retained by callers stay queryable (merged queries
// are wait-free and summarise the final drained state). Drop waits for
// every lane claimed through AcquireLane to be released, and later claims
// report ok=false; an update on a pinned lane of a dropped sketch blocks
// forever, the same contract as Close. Like every registry accessor it
// panics after Close.
func (r *Registry) Drop(family, name string) bool {
	r.lockOpen()
	e := r.lookup(family, name)
	if e == nil {
		r.mu.Unlock()
		return false
	}
	delete(r.sketches, e.key)
	r.mu.Unlock()
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
	for _, e := range r.sketches {
		e.sk.Close()
	}
}
