package fastsketches

// Family-matrix tests: everything here ranges over the registry's family
// table, so a future row is driven through the whole lifecycle for free (and
// fails loudly until matrixDrivers says how to feed and read it).

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// matrixHandle is the family-agnostic face of a typed Handle — every
// instantiation satisfies it.
type matrixHandle interface {
	Family() string
	Name() string
	Shards() int
	Resize(shards int) error
	Apply(Spec) error
	ViewEnabled() bool
	RotateNow() bool
	Info() (SketchInfo, bool)
	Drop() bool
}

// matrixDriver feeds and reads one family's sketch in family-neutral terms:
// ingest n fresh distinct items through UpdateBatch, and read how many items
// the cumulative and windowed planes reflect.
type matrixDriver struct {
	matrixHandle
	ingest func(n int)
	total  func() float64
	window func() (float64, bool)
}

// drive builds the driver of one typed handle: item makes the i-th distinct
// item, count reads the item count off a folded accumulator.
func drive[T any, A any, S Sketch[T, A]](h *Handle[T, A, S], err error, item func(i int) T, count func(A) float64) (matrixDriver, error) {
	if err != nil {
		return matrixDriver{}, err
	}
	acc, next := h.NewAccumulator(), 0
	return matrixDriver{
		matrixHandle: h,
		ingest: func(n int) {
			batch := make([]T, n)
			for i := range batch {
				batch[i] = item(next)
				next++
			}
			h.UpdateBatch(0, batch)
		},
		total:  func() float64 { h.QueryInto(acc); return count(acc) },
		window: func() (float64, bool) { ok := h.WindowQueryInto(acc); return count(acc), ok },
	}, nil
}

// matrixDrivers maps each family row to its typed open. Θ and HLL count
// distinct keys, quantiles and Count-Min count items — the same number for a
// stream of distinct items.
var matrixDrivers = map[wire.Family]func(r *Registry, name string) (matrixDriver, error){
	wire.FamilyTheta: func(r *Registry, name string) (matrixDriver, error) {
		h, err := r.OpenTheta(name, Spec{})
		return drive(h, err, func(i int) uint64 { return uint64(i) }, (*theta.Union).Estimate)
	},
	wire.FamilyHLL: func(r *Registry, name string) (matrixDriver, error) {
		h, err := r.OpenHLL(name, Spec{})
		return drive(h, err, func(i int) uint64 { return uint64(i) }, (*hll.Sketch).Estimate)
	},
	wire.FamilyQuantiles: func(r *Registry, name string) (matrixDriver, error) {
		h, err := r.OpenQuantiles(name, Spec{})
		return drive(h, err, func(i int) float64 { return float64(i) }, func(a *quantiles.Accumulator) float64 { return float64(a.N()) })
	},
	wire.FamilyCountMin: func(r *Registry, name string) (matrixDriver, error) {
		h, err := r.OpenCountMin(name, Spec{})
		return drive(h, err, func(i int) uint64 { return uint64(i) }, func(a *countmin.Sketch) float64 { return float64(a.N()) })
	},
}

// TestFamilyMatrixLifecycle walks every row of the family table through the
// registry's whole lifecycle with identical assertions: open → UpdateBatch →
// Resize → view on/off → window + RotateNow → view over the window →
// Checkpoint → Restore into a fresh registry → Info/Names → Close →
// Checkpoint → Restore → Drop.
func TestFamilyMatrixLifecycle(t *testing.T) {
	// The table has a row for every family the wire (and the checkpoint
	// codec) lets through, and no more.
	if n := wire.Family(len(families)); !(n - 1).Valid() || n.Valid() {
		t.Fatalf("family table has %d rows; the wire's families end elsewhere", len(families)-1)
	}
	for id := range families {
		fam := wire.Family(id)
		if families[id].new == nil {
			continue // index 0
		}
		t.Run(fam.String(), func(t *testing.T) {
			open := matrixDrivers[fam]
			if open == nil {
				t.Fatalf("family %s has a table row but no matrixDrivers entry", fam)
			}
			cfg := RegistryConfig{Shards: 2, Writers: 1}
			reg, err := NewRegistry(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			const name = "matrix"
			d, err := open(reg, name)
			if err != nil {
				t.Fatal(err)
			}
			if d.Family() != fam.String() || d.Name() != name || d.Shards() != 2 {
				t.Fatalf("opened %s/%s at S=%d, want %s/%s at S=2", d.Family(), d.Name(), d.Shards(), fam, name)
			}
			// near holds the families to one tolerance: the distinct-count
			// sketches estimate, the item-count ones are exact.
			near := func(what string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > 0.05*want {
					t.Errorf("%s = %.0f, want %.0f ± 5%%", what, got, want)
				}
			}

			// Ingest, then resize: the resize drains exactly, so the
			// cumulative plane reflects every item.
			d.ingest(1000)
			if err := d.Resize(3); err != nil {
				t.Fatal(err)
			}
			if d.Shards() != 3 {
				t.Errorf("S = %d after Resize(3)", d.Shards())
			}
			near("total after resize", d.total(), 1000)

			// View on: merged queries read the published view; off: live again.
			if err := d.Apply(Spec{View: &ViewConfig{RefreshEvery: time.Hour, MaxAge: -1}}); err != nil {
				t.Fatal(err)
			}
			if !d.ViewEnabled() {
				t.Error("view not enabled")
			}
			near("total through the view", d.total(), 1000)
			if err := d.Apply(Spec{ViewOff: true}); err != nil || d.ViewEnabled() {
				t.Errorf("view not disabled: %v", err)
			}

			// Window: items ingested after the declaration are the window's;
			// a forced rotation closes them into a ring slot exactly.
			if _, ok := d.window(); ok {
				t.Error("windowed query answered before a window was declared")
			}
			wcfg := WindowConfig{Interval: time.Hour, Slots: 2, Clock: clock.NewManual(time.Unix(1<<20, 0))}
			if err := d.Apply(Spec{Window: &wcfg}); err != nil {
				t.Fatal(err)
			}
			d.ingest(500)
			if !d.RotateNow() {
				t.Fatal("RotateNow found no window")
			}
			if got, ok := d.window(); !ok {
				t.Error("windowed query found no window")
			} else {
				near("window after rotation", got, 500)
			}
			near("total after rotation", d.total(), 1500)

			// A view over the windowed sketch, parked on the same manual clock,
			// so the checkpoint record carries both.
			if err := d.Apply(Spec{View: &ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: wcfg.Clock}}); err != nil {
				t.Fatal(err)
			}
			near("total through the view over the window", d.total(), 1500)

			// restored checkpoints from and restores into a fresh registry.
			restored := func(from *Registry) (*Registry, matrixDriver) {
				t.Helper()
				var ckpt bytes.Buffer
				if err := from.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewRegistry(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fresh.Close)
				if err := fresh.Restore(&ckpt); err != nil {
					t.Fatal(err)
				}
				rd, err := open(fresh, name)
				if err != nil {
					t.Fatal(err)
				}
				return fresh, rd
			}

			// Checkpoint, restore into a fresh registry: same identity,
			// geometry, view, window shape and state. The restored view never
			// refreshes here (1h, never expires), so its first publication
			// must already hold the ring for the cumulative total to be whole.
			fresh, rd := restored(reg)
			if got, want := fresh.Names(), reg.Names(); !slices.Equal(got, want) || len(got) != 1 {
				t.Errorf("restored Names = %v, source has %v", got, want)
			}
			inf, ok := fresh.Info(fam.String(), name)
			if w := inf.Spec.Window; !ok || inf.Spec.Shards != 3 || inf.Spec.View == nil || w == nil || w.Slots != 2 || w.Interval != time.Hour {
				t.Errorf("restored Info = %+v (ok=%v), want S=3 with a view and a 2×1h window", inf, ok)
			}
			wantTotal := rd.total()
			near("restored total", wantTotal, 1500)
			wantWindow, ok := rd.window()
			if !ok {
				t.Error("restored sketch lost its window")
			}
			near("restored window", wantWindow, 500)

			// A checkpoint taken after Close (sketchd's graceful shutdown)
			// carries the same ring as the one taken before it.
			reg.Close()
			_, cd := restored(reg)
			if got := cd.total(); got != wantTotal {
				t.Errorf("total restored from a post-Close checkpoint = %.0f, pre-Close checkpoint gave %.0f", got, wantTotal)
			}
			if got, _ := cd.window(); got != wantWindow {
				t.Errorf("window restored from a post-Close checkpoint = %.0f, pre-Close checkpoint gave %.0f", got, wantWindow)
			}

			// Drop: gone from Info and Names, and a second Drop finds nothing.
			if !rd.Drop() {
				t.Error("Drop found nothing")
			}
			if _, ok := rd.Info(); ok {
				t.Error("Info still answers after Drop")
			}
			if names := fresh.Names(); len(names) != 0 {
				t.Errorf("Names after Drop = %v", names)
			}
			if fresh.Drop(fam.String(), name) {
				t.Error("second Drop found the sketch again")
			}
		})
	}
}

// TestDroppedSketchKeepsNoLifecycle interleaves Open(name, Spec{Pinned})
// with a Drop landing between the open's get-or-create and its lifecycle
// write: the declaration must die with the dropped sketch, not leak onto the
// fresh sketch opened under the name next (which the ops sweeper would then
// never evict).
func TestDroppedSketchKeepsNoLifecycle(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// The two halves of OpenHLL("orphan", Spec{Pinned: true, IdleTTL: 1h}),
	// with the Drop in between.
	e := reg.getOrCreate(wire.FamilyHLL, "orphan")
	if !reg.Drop("hll", "orphan") {
		t.Fatal("Drop found nothing")
	}
	if err := reg.apply(e, Spec{Pinned: true, IdleTTL: time.Hour}, nil); err != nil {
		t.Fatal(err)
	}
	h, err := reg.OpenHLL("orphan", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if inf, ok := h.Info(); !ok || inf.Spec.Pinned || inf.Spec.IdleTTL != 0 {
		t.Errorf("fresh sketch inherited a dropped sketch's lifecycle: %+v (ok=%v)", inf, ok)
	}
}
