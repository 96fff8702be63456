package shard

import (
	"bytes"
	"testing"
	"time"

	"fastsketches/internal/clock"
)

// TestViewRefreshPublishesFreshPlane pins the view's publication rule, the one
// every plane follows: a refresh publishes a fresh accumulator and never
// touches a published one, so a querier still folding the previous plane
// reads it unchanged.
func TestViewRefreshPublishesFreshPlane(t *testing.T) {
	// Eager throughout, so every update is visible to the next refresh.
	sk, err := NewCountMin(0.001, 0.01, Config{Shards: 2, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	for i := 0; i < 100; i++ {
		sk.Update(0, uint64(i%8))
	}
	if err := sk.EnableView(ViewConfig{
		RefreshEvery: time.Hour, MaxAge: -1, Clock: clock.NewManual(time.Unix(1<<20, 0)),
	}); err != nil {
		t.Fatal(err)
	}
	old := sk.view.Load()
	before := old.acc.ExportTo(nil)
	for i := 0; i < 50; i++ {
		sk.Update(0, uint64(i%8))
	}
	if !sk.RefreshViewNow() {
		t.Fatal("RefreshViewNow returned false with a view enabled")
	}
	cur := sk.view.Load()
	if cur == old || cur.acc == old.acc {
		t.Fatal("refresh republished the previous plane's accumulator")
	}
	if after := old.acc.ExportTo(nil); !bytes.Equal(after, before) {
		t.Fatal("refresh mutated the previously published plane")
	}
	if n := cur.acc.N(); n != 150 {
		t.Fatalf("refreshed plane N = %d, want 150", n)
	}
}

// captureClock hands each scheduled job back to the test instead of running
// it, so a test can fire a tick at any point — including after its job was
// replaced.
type captureClock struct{ jobs []func() }

func (*captureClock) Now() time.Time { return time.Unix(1<<20, 0) }

func (c *captureClock) Every(_ time.Duration, fn func()) func() {
	c.jobs = append(c.jobs, fn)
	return func() {}
}

// TestViewStaleTickActsForNobody: a refresher tick that lost the race for
// resizeMu to DisableView and a fresh EnableView does not refresh the new
// view.
func TestViewStaleTickActsForNobody(t *testing.T) {
	sk, err := NewCountMin(0.001, 0.01, Config{Shards: 2, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	clk := &captureClock{}
	cfg := ViewConfig{RefreshEvery: time.Hour, MaxAge: -1, Clock: clk}
	if err := sk.EnableView(cfg); err != nil {
		t.Fatal(err)
	}
	sk.DisableView()
	if err := sk.EnableView(cfg); err != nil {
		t.Fatal(err)
	}
	published := sk.view.Load()
	clk.jobs[0]() // the first view's tick
	if sk.view.Load() != published {
		t.Fatal("a disabled view's tick refreshed its successor")
	}
	clk.jobs[1]()
	if sk.view.Load() == published {
		t.Fatal("the live view's tick did not refresh it")
	}
}

// TestWindowStaleTickActsForNobody: a rotator tick that lost the race for
// resizeMu to DisableWindow and a fresh EnableWindow does not rotate the
// new window early.
func TestWindowStaleTickActsForNobody(t *testing.T) {
	sk, err := NewCountMin(0.001, 0.01, Config{Shards: 2, MaxError: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	clk := &captureClock{}
	cfg := WindowConfig{Interval: time.Hour, Slots: 2, Clock: clk}
	if err := sk.EnableWindow(cfg); err != nil {
		t.Fatal(err)
	}
	sk.DisableWindow()
	if err := sk.EnableWindow(cfg); err != nil {
		t.Fatal(err)
	}
	clk.jobs[0]() // the first window's tick
	if st, _ := sk.WindowStats(); st.Rotations != 0 {
		t.Fatalf("a disabled window's tick rotated its successor: %d rotations", st.Rotations)
	}
	clk.jobs[1]()
	if st, _ := sk.WindowStats(); st.Rotations != 1 {
		t.Fatalf("the live window's tick: %d rotations, want 1", st.Rotations)
	}
}
