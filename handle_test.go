package fastsketches_test

// Typed-handle API tests: Open* idempotence, the declarative Spec semantics
// (Shards resize, View re-arm, lifecycle recording) and
// validation.

import (
	"errors"
	"sort"
	"testing"
	"time"

	"fastsketches"
)

func openRegistry(t *testing.T, cfg fastsketches.RegistryConfig) *fastsketches.Registry {
	t.Helper()
	reg, err := fastsketches.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// TestOpenIdempotent: reopening a live name returns a handle on the same
// sketch, and an empty Spec declares nothing — no resize, no view, no
// lifecycle churn.
func TestOpenIdempotent(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 3, Writers: 1})
	h1, err := reg.OpenTheta("idem", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	h1.Update(0, 42)
	h2, err := reg.OpenTheta("idem", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Sketch() != h2.Sketch() {
		t.Fatal("reopen returned a different sketch")
	}
	if h2.Shards() != 3 || h2.ViewEnabled() {
		t.Errorf("empty Spec changed state: S=%d view=%v", h2.Shards(), h2.ViewEnabled())
	}
	if h2.Family() != "theta" || h2.Name() != "idem" {
		t.Errorf("handle identity %s/%s", h2.Family(), h2.Name())
	}
	inf, ok := h2.Info()
	if !ok || inf.Spec.IdleTTL != 0 || inf.Spec.Pinned {
		t.Errorf("empty Spec recorded lifecycle: %+v (ok=%v)", inf, ok)
	}
}

// TestSpecDeclarativeShards: Spec.Shards resizes whenever it differs from
// the live S, and 0 leaves S alone.
func TestSpecDeclarativeShards(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	h, err := reg.OpenCountMin("decl", fastsketches.Spec{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards() != 4 {
		t.Fatalf("S=%d after Open{Shards:4}", h.Shards())
	}
	for i := uint64(0); i < 100; i++ {
		h.Update(0, i%8)
	}
	if h, err = reg.OpenCountMin("decl", fastsketches.Spec{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if h.Shards() != 2 {
		t.Fatalf("S=%d after reopen with Shards:2", h.Shards())
	}
	// The declarative resize drained exactly like Handle.Resize: per-key
	// answers cover the full stream.
	if got := h.Sketch().Estimate(3); got != 13 { // key 3 appears 13× in 0..99 mod 8
		t.Errorf("post-resize estimate %d, want 13", got)
	}
	if h, err = reg.OpenCountMin("decl", fastsketches.Spec{}); err != nil {
		t.Fatal(err)
	}
	if h.Shards() != 2 {
		t.Errorf("S=%d after reopen with Shards:0, want 2 untouched", h.Shards())
	}
}

// TestSpecValidation: malformed Specs are rejected with ErrConfig and leave
// nothing behind.
func TestSpecValidation(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	if _, err := reg.OpenHLL("bad", fastsketches.Spec{Shards: -1}); !errors.Is(err, fastsketches.ErrConfig) {
		t.Errorf("negative Shards: %v, want ErrConfig", err)
	}
	if _, err := reg.OpenHLL("bad", fastsketches.Spec{IdleTTL: -time.Second}); !errors.Is(err, fastsketches.ErrConfig) {
		t.Errorf("negative IdleTTL: %v, want ErrConfig", err)
	}
}

// TestSpecViewRearm: a non-nil Spec.View (re-)materializes the merged view
// on every Open that declares it; a nil one leaves the view state alone.
func TestSpecViewRearm(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	view := &fastsketches.ViewConfig{RefreshEvery: time.Hour}
	h, err := reg.OpenQuantiles("viewed", fastsketches.Spec{View: view})
	if err != nil {
		t.Fatal(err)
	}
	if !h.ViewEnabled() {
		t.Fatal("Spec.View did not enable the view")
	}
	if h, err = reg.OpenQuantiles("viewed", fastsketches.Spec{}); err != nil {
		t.Fatal(err)
	}
	if !h.ViewEnabled() {
		t.Error("nil Spec.View disabled a live view")
	}
	if err := h.Apply(fastsketches.Spec{ViewOff: true}); err != nil || h.ViewEnabled() {
		t.Fatalf("Spec.ViewOff left the view on (err %v)", err)
	}
	if h, err = reg.OpenQuantiles("viewed", fastsketches.Spec{View: view}); err != nil {
		t.Fatal(err)
	}
	if !h.ViewEnabled() {
		t.Error("reopen with Spec.View did not re-arm the view")
	}
}

// TestSpecLifecycleRecorded: IdleTTL/Pinned land in SketchInfo, empty Specs
// never clobber them, and a later declaration updates them.
func TestSpecLifecycleRecorded(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	h, err := reg.OpenHLL("lc", fastsketches.Spec{IdleTTL: time.Minute, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	inf, ok := h.Info()
	if !ok || inf.Spec.IdleTTL != time.Minute || !inf.Spec.Pinned {
		t.Fatalf("lifecycle not recorded: %+v (ok=%v)", inf, ok)
	}
	if _, err = reg.OpenHLL("lc", fastsketches.Spec{}); err != nil {
		t.Fatal(err)
	}
	if inf, _ = h.Info(); inf.Spec.IdleTTL != time.Minute || !inf.Spec.Pinned {
		t.Errorf("empty Spec clobbered lifecycle: %+v", inf)
	}
	if _, err = reg.OpenHLL("lc", fastsketches.Spec{IdleTTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if inf, _ = h.Info(); inf.Spec.IdleTTL != time.Hour || inf.Spec.Pinned {
		t.Errorf("redeclaration not applied: %+v, want IdleTTL=1h Pinned=false", inf)
	}
	// Drop clears the record: a fresh incarnation starts with no lifecycle.
	if !h.Drop() {
		t.Fatal("Drop found nothing")
	}
	h2, err := reg.OpenHLL("lc", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if inf, _ = h2.Info(); inf.Spec.IdleTTL != 0 || inf.Spec.Pinned {
		t.Errorf("lifecycle leaked across Drop: %+v", inf)
	}
}

// TestInfosEnumeration: Infos is sorted by family then name and populated
// with the ops-facing fields the /metrics exposition and the sweeper read.
func TestInfosEnumeration(t *testing.T) {
	reg := openRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1, BufferSize: 1})
	names := []string{"b", "a", "c"}
	for _, n := range names {
		h, err := reg.OpenTheta(n, fastsketches.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		h.Update(0, 7)
	}
	if _, err := reg.OpenCountMin("z", fastsketches.Spec{Pinned: true}); err != nil {
		t.Fatal(err)
	}

	infos := reg.Infos()
	if len(infos) != 4 {
		t.Fatalf("Infos returned %d entries, want 4", len(infos))
	}
	if !sort.SliceIsSorted(infos, func(i, j int) bool {
		if infos[i].Family != infos[j].Family {
			return infos[i].Family < infos[j].Family
		}
		return infos[i].Name < infos[j].Name
	}) {
		t.Error("Infos not sorted by family then name")
	}
	for _, inf := range infos {
		if inf.SizeBytes <= 0 {
			t.Errorf("%s/%s: SizeBytes %d, want > 0", inf.Family, inf.Name, inf.SizeBytes)
		}
		if inf.Family == "theta" && inf.Ingested <= 0 {
			t.Errorf("%s/%s: Ingested %d after an update", inf.Family, inf.Name, inf.Ingested)
		}
		if inf.Family == "countmin" && !inf.Spec.Pinned {
			t.Errorf("%s/%s: Pinned flag lost in enumeration", inf.Family, inf.Name)
		}
	}

	got := reg.Names()
	want := []string{"countmin/z", "theta/a", "theta/b", "theta/c"}
	if len(got) != len(want) {
		t.Fatalf("Names: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names: %v, want %v", got, want)
		}
	}
}
