package fastsketches_test

// Registry-level windowing: the declarative Spec.Window surface, the
// name-spanning Registry.Apply of a window and of Spec.WindowOff, the registry-wide
// default window, windowed checkpoint round-trips, and the rotation-vs-
// resize-vs-checkpoint chaos run (exercised under -race in CI).

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"fastsketches"
)

// drain forces every buffered update into queryable state: a resize to a
// DIFFERENT shard count (same-size resizes are no-ops) drains each writer
// buffer exactly — into the window carry when a window is enabled — so the
// assertions below are exact, not bounded.
func drain(t *testing.T, h interface{ Resize(int) error }, s int) {
	t.Helper()
	if err := h.Resize(s); err != nil {
		t.Fatal(err)
	}
}

func TestSpecWindowDeclarative(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	spec := fastsketches.Spec{Window: &fastsketches.WindowConfig{
		Interval: time.Hour, Slots: 3, Decay: 0.5,
	}}
	cm, err := reg.OpenCountMin("w.cm", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cm.WindowEnabled() {
		t.Fatal("Spec.Window did not declare a window")
	}

	for i := 0; i < 100; i++ {
		cm.Update(i%2, 7)
	}
	drain(t, cm, 3)
	if !cm.RotateNow() {
		t.Fatal("RotateNow refused with a window declared")
	}
	for i := 0; i < 50; i++ {
		cm.Update(i%2, 7)
	}
	drain(t, cm, 2)
	if n, ok := cm.Sketch().WindowN(); !ok || n != 150 {
		t.Fatalf("WindowN = (%d, %v), want (150, true)", n, ok)
	}

	// Reopening with an equal declaration is a no-op: the ring, its closed
	// slot and the rotation count all survive.
	cm2, err := reg.OpenCountMin("w.cm", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 3, Decay: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm2.Sketch() != cm.Sketch() {
		t.Fatal("reopen returned a different sketch")
	}
	st, ok := cm2.WindowStats()
	if !ok || st.Rotations != 1 {
		t.Fatalf("equal reopen lost the ring: stats (%+v, %v)", st, ok)
	}
	if n, _ := cm2.Sketch().WindowN(); n != 150 {
		t.Fatalf("equal reopen lost window contents: WindowN = %d", n)
	}

	// Reopening with a nil Window leaves the running window untouched.
	cm3, err := reg.OpenCountMin("w.cm", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := cm3.WindowStats(); !ok || st.Rotations != 1 {
		t.Fatalf("nil-Window reopen touched the ring: stats (%+v, %v)", st, ok)
	}

	// A different declaration collapses the old window into the cumulative
	// plane (no count loss) and re-arms a fresh ring.
	cm4, err := reg.OpenCountMin("w.cm", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := cm4.Sketch().WindowSettings()
	if !ok || wc.Slots != 5 || wc.Decay != 0 {
		t.Fatalf("re-armed settings = (%+v, %v), want Slots=5 Decay=0", wc, ok)
	}
	if st, _ := cm4.WindowStats(); st.Rotations != 0 {
		t.Fatalf("re-armed window kept %d rotations, want 0", st.Rotations)
	}
	if n, ok := cm4.Sketch().WindowN(); !ok || n != 0 {
		t.Fatalf("re-armed WindowN = (%d, %v), want (0, true)", n, ok)
	}
	acc := cm4.NewAccumulator()
	cm4.QueryInto(acc)
	if acc.N() != 150 {
		t.Fatalf("cumulative N after re-arm = %d, want 150 (collapse lost counts)", acc.N())
	}
}

func TestSpecWindowRejectsBadConfig(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, w := range []fastsketches.WindowConfig{
		{Interval: time.Second, Decay: 1.5},
		{Interval: time.Second, Slots: -1},
		{Interval: time.Second, Slots: 1 << 20},
	} {
		w := w
		if _, err := reg.OpenCountMin("w.bad", fastsketches.Spec{Window: &w}); err == nil {
			t.Errorf("Spec.Window %+v accepted", w)
		}
	}
	// Decay on a family without scalable counters is a per-sketch error on
	// the typed path (the caller named one family explicitly — no silent
	// stripping, unlike a name-spanning Registry.Apply).
	if _, err := reg.OpenTheta("w.bad", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Second, Decay: 0.5},
	}); err == nil {
		t.Error("decay on theta accepted through Spec.Window")
	}
}

func TestRegistryConfigDefaultWindow(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 2,
		WindowInterval: time.Hour, WindowSlots: 2, WindowDecay: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	th := openTheta(t, reg, "def")
	cm := openCountMin(t, reg, "def")
	wcTh, ok := th.Sketch().WindowSettings()
	if !ok || wcTh.Interval != time.Hour || wcTh.Slots != 2 || wcTh.Decay != 0 {
		t.Fatalf("theta default window = (%+v, %v), want hour/2/decay-free", wcTh, ok)
	}
	wcCM, ok := cm.Sketch().WindowSettings()
	if !ok || wcCM.Decay != 0.25 {
		t.Fatalf("countmin default window = (%+v, %v), want Decay=0.25", wcCM, ok)
	}
}

func TestReplaceWindowAndStopWindow(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	th := openTheta(t, reg, "multi")
	cm := openCountMin(t, reg, "multi")

	window := func(cfg fastsketches.WindowConfig) fastsketches.Spec { return fastsketches.Spec{Window: &cfg} }
	if err := reg.Apply("", "absent", window(fastsketches.WindowConfig{Interval: time.Hour})); err == nil {
		t.Error("Apply of a window to an unregistered name succeeded")
	}

	cfg := fastsketches.WindowConfig{Interval: time.Hour, Slots: 2, Decay: 0.5}
	if err := reg.Apply("", "multi", window(cfg)); err != nil {
		t.Fatal(err)
	}
	// Decay is stripped for the families without scalable counters and kept
	// for Count-Min — same window shape, per-family decay capability.
	if wc, ok := th.Sketch().WindowSettings(); !ok || wc.Decay != 0 || wc.Slots != 2 {
		t.Fatalf("theta window = (%+v, %v), want decay stripped", wc, ok)
	}
	if wc, ok := cm.Sketch().WindowSettings(); !ok || wc.Decay != 0.5 {
		t.Fatalf("countmin window = (%+v, %v), want Decay=0.5", wc, ok)
	}

	// Idempotence with the stripping in play: rotate both rings, re-declare
	// the same config, and the rings must survive on every family.
	th.RotateNow()
	cm.RotateNow()
	if err := reg.Apply("", "multi", window(cfg)); err != nil {
		t.Fatal(err)
	}
	if st, ok := th.WindowStats(); !ok || st.Rotations != 1 {
		t.Fatalf("repeat Apply re-armed theta: stats (%+v, %v)", st, ok)
	}
	if st, ok := cm.WindowStats(); !ok || st.Rotations != 1 {
		t.Fatalf("repeat Apply re-armed countmin: stats (%+v, %v)", st, ok)
	}

	// A changed shape re-arms everywhere.
	if err := reg.Apply("", "multi", window(fastsketches.WindowConfig{Interval: time.Hour, Slots: 4})); err != nil {
		t.Fatal(err)
	}
	if st, _ := cm.WindowStats(); st.Rotations != 0 {
		t.Fatalf("changed window kept countmin ring: %d rotations", st.Rotations)
	}

	// Switching the windows off covers the name; again, it is a no-op.
	for i := 0; i < 2; i++ {
		if err := reg.Apply("", "multi", fastsketches.Spec{WindowOff: true}); err != nil {
			t.Fatal(err)
		}
		if th.WindowEnabled() || cm.WindowEnabled() {
			t.Fatal("Spec.WindowOff left a window enabled")
		}
	}
}

func TestCheckpointRestoreWindowedState(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	cm, err := reg.OpenCountMin("ck.win", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 4, Decay: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	next := 3 // alternate the drain-resize target: same-size resizes no-op
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			cm.Update(i%2, key)
		}
		drain(t, cm, next)
		next = 5 - next
	}
	ingest(100)
	cm.RotateNow() // slot: 100, decayed: 100
	ingest(40)
	cm.RotateNow() // slot: 40, decay plane: 0.5·100 + 40 = 90
	ingest(10)     // live interval, weight 1 in the decayed read

	if n, ok := cm.Sketch().WindowN(); !ok || n != 150 {
		t.Fatalf("pre-checkpoint WindowN = (%d, %v), want (150, true)", n, ok)
	}
	if d, ok := cm.Sketch().DecayedCount(key); !ok || d != 100 {
		t.Fatalf("pre-checkpoint DecayedCount = (%d, %v), want (90+10 live, true)", d, ok)
	}

	var buf bytes.Buffer
	if err := reg.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	re := openCountMin(t, dst, "ck.win")
	wc, ok := re.Sketch().WindowSettings()
	if !ok || wc.Interval != time.Hour || wc.Slots != 4 || wc.Decay != 0.5 {
		t.Fatalf("restored window settings = (%+v, %v)", wc, ok)
	}
	// A restore rebuilds the closed ring (100 + 40) and the decay plane (90)
	// exactly, but the live-interval state at checkpoint time — the drained 10
	// — ships in the base blob and is demoted to cumulative-only history, so
	// the restored window no longer counts it.
	if n, ok := re.Sketch().WindowN(); !ok || n != 140 {
		t.Fatalf("restored WindowN = (%d, %v), want (140, true)", n, ok)
	}
	if d, ok := re.Sketch().DecayedCount(key); !ok || d != 90 {
		t.Fatalf("restored DecayedCount = (%d, %v), want (90, true)", d, ok)
	}
	acc := re.NewAccumulator()
	re.QueryInto(acc)
	if acc.N() != 150 {
		t.Fatalf("restored cumulative N = %d, want 150", acc.N())
	}

	// The restored ring must keep sliding correctly: one more rotation expels
	// nothing yet (4 slots, 2 used) and the window keeps covering the
	// restored closed slots.
	if !re.RotateNow() {
		t.Fatal("restored window does not rotate")
	}
	if n, _ := re.Sketch().WindowN(); n != 140 {
		t.Fatalf("post-restore rotation dropped counts: WindowN = %d", n)
	}
}

// TestWindowRotateResizeCheckpointUnderFire races the four mutating planes —
// writers, explicit rotations, live resizes and checkpoint serialisation —
// against each other; run under -race in CI. Every checkpoint taken under
// fire must restore cleanly, and the restored windowed total may never
// exceed the restored cumulative total nor the updates ingested so far.
func TestWindowRotateResizeCheckpointUnderFire(t *testing.T) {
	const writers, perWriter = 4, 10_000
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: writers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	cm, err := reg.OpenCountMin("fire.win", fastsketches.Spec{
		Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 3, Decay: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				cm.Update(w, uint64(i%127))
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for s := 1; ; s++ {
			select {
			case <-writersDone:
				return
			default:
			}
			cm.RotateNow()
			if err := cm.Resize(1 + s%4); err != nil {
				t.Errorf("resize under rotation fire: %v", err)
				return
			}
			cm.RotateNow()
		}
	}()

	var ckpt []byte
	for k := 0; k < 25; k++ {
		ckpt = reg.AppendCheckpoint(ckpt[:0])
		dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(bytes.NewReader(ckpt)); err != nil {
			t.Fatalf("checkpoint %d taken under rotation fire does not restore: %v", k, err)
		}
		re := openCountMin(t, dst, "fire.win")
		acc := re.NewAccumulator()
		re.QueryInto(acc)
		total := acc.N()
		win, ok := re.Sketch().WindowN()
		if !ok {
			t.Fatalf("checkpoint %d restored without its window", k)
		}
		if int(win) > writers*perWriter || win > total {
			t.Fatalf("checkpoint %d: windowed %d exceeds cumulative %d or ingested %d",
				k, win, total, writers*perWriter)
		}
		dst.Close()
	}
	<-writersDone
	<-chaosDone

	// Quiesce: a resize to a never-visited shard count drains every buffer,
	// and the cumulative plane must then hold the full stream exactly.
	if err := cm.Resize(5); err != nil {
		t.Fatal(err)
	}
	acc := cm.NewAccumulator()
	cm.QueryInto(acc)
	if acc.N() != writers*perWriter {
		t.Fatalf("cumulative N after quiesce = %d, want %d", acc.N(), writers*perWriter)
	}
	if win, ok := cm.Sketch().WindowN(); !ok || win > uint64(writers*perWriter) {
		t.Fatalf("windowed N after quiesce = (%d, %v), want ≤ %d", win, ok, writers*perWriter)
	}
}
