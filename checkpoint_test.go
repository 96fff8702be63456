package fastsketches_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
	"fastsketches/internal/snapshot"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// Typed-handle open helpers: every sketch in this file is reached through
// the declarative Open* path.
func openTheta(t testing.TB, reg *fastsketches.Registry, name string) *fastsketches.ThetaHandle {
	t.Helper()
	h, err := reg.OpenTheta(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func openHLL(t testing.TB, reg *fastsketches.Registry, name string) *fastsketches.HLLHandle {
	t.Helper()
	h, err := reg.OpenHLL(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func openQuantiles(t testing.TB, reg *fastsketches.Registry, name string) *fastsketches.QuantilesHandle {
	t.Helper()
	h, err := reg.OpenQuantiles(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func openCountMin(t testing.TB, reg *fastsketches.Registry, name string) *fastsketches.CountMinHandle {
	t.Helper()
	h, err := reg.OpenCountMin(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// populated builds a registry holding all four families with a quiesced
// (exact) stream: n distinct keys into theta/hll, n items into quantiles,
// and n countmin updates over keySpace keys. The final resize drains every
// buffer so the state is an exact function of the stream.
func populated(t *testing.T, n int) *fastsketches.Registry {
	t.Helper()
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 3, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	th, h := openTheta(t, reg, "ck.theta"), openHLL(t, reg, "ck.hll")
	q, cm := openQuantiles(t, reg, "ck.q"), openCountMin(t, reg, "ck.cm")
	for i := 0; i < n; i++ {
		k := uint64(i)
		th.Update(i%2, k)
		h.Update(i%2, k)
		q.Update(i%2, float64(i))
		cm.Update(i%2, k%61)
	}
	if err := errors.Join(
		th.Resize(2), h.Resize(2), q.Resize(2), cm.Resize(2),
	); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const n = 2000
	src := populated(t, n)
	defer src.Close()

	// Serving configuration rides the checkpoint: a view on the HLL and a
	// lifecycle (idle TTL and pinning) on the Count-Min.
	if err := src.Apply("hll", "ck.hll", fastsketches.Spec{View: &fastsketches.ViewConfig{
		RefreshEvery: 40 * time.Millisecond, MaxAge: -1,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := src.Apply("countmin", "ck.cm", fastsketches.Spec{IdleTTL: 2 * time.Hour, Pinned: true}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 3, Writers: 2, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Identity and geometry restored.
	for _, want := range []struct {
		fam, name string
		shards    int
	}{
		{"theta", "ck.theta", 2}, {"hll", "ck.hll", 2},
		{"quantiles", "ck.q", 2}, {"countmin", "ck.cm", 2},
	} {
		inf, ok := dst.Info(want.fam, want.name)
		if !ok {
			t.Fatalf("restored registry missing %s/%s", want.fam, want.name)
		}
		if inf.Spec.Shards != want.shards {
			t.Errorf("%s/%s: restored shards %d, want %d", want.fam, want.name, inf.Spec.Shards, want.shards)
		}
	}

	// Exact families agree exactly with the source.
	thAcc := openTheta(t, dst, "ck.theta").NewAccumulator()
	openTheta(t, dst, "ck.theta").QueryInto(thAcc)
	if got := thAcc.Estimate(); got != n {
		t.Errorf("restored theta estimate %v, want exactly %d (eager regime)", got, n)
	}
	srcAcc := openHLL(t, src, "ck.hll").NewAccumulator()
	openHLL(t, src, "ck.hll").QueryInto(srcAcc)
	dstAcc := openHLL(t, dst, "ck.hll").NewAccumulator()
	openHLL(t, dst, "ck.hll").QueryInto(dstAcc)
	if got, want := dstAcc.Estimate(), srcAcc.Estimate(); got != want {
		t.Errorf("restored hll estimate %v, want %v", got, want)
	}
	dstCM := openCountMin(t, dst, "ck.cm")
	cmAcc := dstCM.NewAccumulator()
	dstCM.QueryInto(cmAcc)
	if cmAcc.N() != n {
		t.Errorf("restored countmin N %d, want exactly %d", cmAcc.N(), n)
	}
	srcCM := openCountMin(t, src, "ck.cm")
	for key := uint64(0); key < 61; key++ {
		if g, w := dstCM.Sketch().Estimate(key), srcCM.Sketch().Estimate(key); g != w {
			t.Errorf("countmin key %d: restored %d, source %d", key, g, w)
		}
	}
	dstQ := openQuantiles(t, dst, "ck.q")
	qAcc := dstQ.NewAccumulator()
	dstQ.QueryInto(qAcc)
	if qAcc.N() != n {
		t.Errorf("restored quantiles N %d, want %d", qAcc.N(), n)
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if v := qAcc.Quantile(phi); math.Abs(v/float64(n)-phi) > 0.05 {
			t.Errorf("restored q(%v) = %v outside the rank guarantee", phi, v)
		}
	}

	// View settings and the lifecycle re-attached.
	if inf, _ := dst.Info("hll", "ck.hll"); inf.Spec.View == nil {
		t.Error("restored hll sketch lost its materialized view")
	}
	if inf, _ := dst.Info("countmin", "ck.cm"); inf.Spec.IdleTTL != 2*time.Hour || !inf.Spec.Pinned {
		t.Errorf("restored lifecycle IdleTTL %v Pinned %v, want 2h and pinned", inf.Spec.IdleTTL, inf.Spec.Pinned)
	}
}

func TestCheckpointAfterCloseCapturesDrainedState(t *testing.T) {
	const n = 1500
	src := populated(t, n)
	src.Close()

	// The shutdown checkpoint: captured after Close, it holds the exact
	// drained state.
	ckpt := src.AppendCheckpoint(nil)

	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	cmh := openCountMin(t, dst, "ck.cm")
	acc := cmh.NewAccumulator()
	cmh.QueryInto(acc)
	if acc.N() != n {
		t.Errorf("post-Close checkpoint N %d, want exactly %d", acc.N(), n)
	}

	// Restore, by contrast, must refuse a closed registry.
	if err := src.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Error("Restore after Close did not error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	const n = 800
	src := populated(t, n)
	defer src.Close()

	path := filepath.Join(t.TempDir(), "sketchd.ckpt")
	if err := src.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// The atomic rename leaves no temp debris next to the file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries, want only the checkpoint", len(entries))
	}

	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	thh := openTheta(t, dst, "ck.theta")
	thAcc := thh.NewAccumulator()
	thh.QueryInto(thAcc)
	if got := thAcc.Estimate(); got != n {
		t.Errorf("restored theta estimate %v, want %d", got, n)
	}

	if err := dst.RestoreFile(filepath.Join(t.TempDir(), "absent.ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing checkpoint error = %v, want fs.ErrNotExist", err)
	}
}

func TestRestoreRejectsCorruptInput(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if err := reg.Restore(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, snapshot.ErrMagic) {
		t.Errorf("garbage restore error = %v, want snapshot.ErrMagic", err)
	}

	// A structurally valid container with a corrupt family blob fails with
	// the family's typed error, wrapped with record context.
	rec := snapshot.Record{
		Family: wire.FamilyTheta, Name: []byte("bad"), Spec: wire.Spec{Shards: 2},
		Blob: []byte{1, 2, 3},
	}
	ckpt := snapshot.AppendRecord(snapshot.AppendHeader(nil, 1), &rec)
	if err := reg.Restore(bytes.NewReader(ckpt)); !errors.Is(err, theta.ErrCorrupt) {
		t.Errorf("corrupt blob restore error = %v, want theta.ErrCorrupt", err)
	}

	// A record rejected for its shard count is rejected before its sketch is
	// created: no empty tenant is left behind.
	before := reg.Names()
	for _, shards := range []int{-1, wire.MaxShards + 1} {
		rec := snapshot.Record{Family: wire.FamilyHLL, Name: []byte("ghost"), Spec: wire.Spec{Shards: shards}}
		ckpt := snapshot.AppendRecord(snapshot.AppendHeader(nil, 1), &rec)
		if err := reg.Restore(bytes.NewReader(ckpt)); !errors.Is(err, fastsketches.ErrConfig) {
			t.Errorf("shard count %d restore error = %v, want ErrConfig", shards, err)
		}
		if after := reg.Names(); !slices.Equal(after, before) {
			t.Errorf("rejected record (shards=%d) changed Names: %v → %v", shards, before, after)
		}
	}
}

// TestCheckpointUnderFire checkpoints concurrently with ingest, resizes,
// view toggles and a drop: no data race (CI runs this suite under -race),
// no panic, and every captured checkpoint restores cleanly with a total
// weight bounded by what was ingested.
func TestCheckpointUnderFire(t *testing.T) {
	const writers, perWriter = 4, 15_000
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 4, Writers: writers})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	cm := openCountMin(t, reg, "fire.cm")
	openTheta(t, reg, "fire.drop") // a sketch to Drop mid-checkpoint

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
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for s := 1; s <= 6; s++ {
			if err := cm.Resize(s); err != nil {
				t.Errorf("resize under checkpoint fire: %v", err)
				return
			}
			if err := cm.Apply(fastsketches.Spec{View: &fastsketches.ViewConfig{
				RefreshEvery: time.Millisecond,
			}}); err != nil {
				t.Errorf("enable view under checkpoint fire: %v", err)
				return
			}
			cm.Apply(fastsketches.Spec{ViewOff: true})
		}
		reg.Drop("theta", "fire.drop")
	}()

	var ckpt []byte
	for k := 0; k < 40; k++ {
		ckpt = reg.AppendCheckpoint(ckpt[:0])
		dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(bytes.NewReader(ckpt)); err != nil {
			t.Fatalf("checkpoint %d taken under fire does not restore: %v", k, err)
		}
		dstCM := openCountMin(t, dst, "fire.cm")
		acc := dstCM.NewAccumulator()
		dstCM.QueryInto(acc)
		if acc.N() > writers*perWriter {
			t.Fatalf("checkpoint %d holds N=%d > ingested %d", k, acc.N(), writers*perWriter)
		}
		dst.Close()
	}
	wg.Wait()
	<-chaosDone

	// Quiesce and verify the final checkpoint is exact.
	if err := cm.Resize(3); err != nil {
		t.Fatal(err)
	}
	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore(bytes.NewReader(reg.AppendCheckpoint(nil))); err != nil {
		t.Fatal(err)
	}
	dstCM := openCountMin(t, dst, "fire.cm")
	acc := dstCM.NewAccumulator()
	dstCM.QueryInto(acc)
	if acc.N() != writers*perWriter {
		t.Errorf("final checkpoint N %d, want exactly %d", acc.N(), writers*perWriter)
	}
}

// TestCheckpointerManualClock drives the periodic loop deterministically:
// each interval elapsing on the injected clock produces a fresh checkpoint
// file, Stop halts the loop, and a post-Close CheckpointNow still writes
// (the shutdown path).
func TestCheckpointerManualClock(t *testing.T) {
	reg := populated(t, 300)
	path := filepath.Join(t.TempDir(), "tick.ckpt")
	mc := clock.NewManual(time.Unix(1_000_000, 0))
	ck, err := fastsketches.NewCheckpointer(reg, path, time.Minute, mc,
		func(err error) { t.Errorf("checkpoint error: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	ck.Start()

	if _, err := os.Stat(path); err == nil {
		t.Fatal("checkpoint written before the first interval elapsed")
	}
	// The loop registers its timer asynchronously after Start, so advance
	// repeatedly until the tick lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mc.Advance(time.Minute)
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never appeared after the interval elapsed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ck.Stop()
	ck.Stop() // idempotent

	// After Stop, advancing time writes nothing: delete and verify.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	mc.Advance(10 * time.Minute)
	time.Sleep(20 * time.Millisecond)
	if _, err := os.Stat(path); err == nil {
		t.Fatal("checkpoint written after Stop")
	}

	// Shutdown order: Close then one final CheckpointNow.
	reg.Close()
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	dst, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	finalTh := openTheta(t, dst, "ck.theta")
	finalAcc := finalTh.NewAccumulator()
	finalTh.QueryInto(finalAcc)
	if got := finalAcc.Estimate(); got != 300 {
		t.Errorf("final checkpoint theta estimate %v, want 300", got)
	}

	// Config validation.
	if _, err := fastsketches.NewCheckpointer(dst, path, 0, nil, nil); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := fastsketches.NewCheckpointer(dst, "", time.Second, nil, nil); err == nil {
		t.Error("empty path accepted")
	}
}

// withVersion returns a copy of a checkpoint container with its format
// version field overwritten.
func withVersion(ckpt []byte, v uint16) []byte {
	out := append([]byte(nil), ckpt...)
	binary.LittleEndian.PutUint16(out[4:], v)
	return out
}

// withSpecFlag returns a copy of ckpt with flag bit set in the Spec of its
// first record, which opens after the 12-byte header, the record length,
// the family and the length-prefixed name.
func withSpecFlag(ckpt []byte, bit uint) []byte {
	out := append([]byte(nil), ckpt...)
	const rec = 12
	out[rec+4+2+int(out[rec+5])] |= 1 << bit
	return out
}

// TestRestoreRejectsV1Checkpoint: format version 1 is no longer read. A
// version-1 container fails whole with snapshot.ErrVersion before any of
// its records is imported, so the registry stays empty.
func TestRestoreRejectsV1Checkpoint(t *testing.T) {
	src := populated(t, 500)
	ckpt := src.AppendCheckpoint(nil)
	src.Close()

	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 3, Writers: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Restore(bytes.NewReader(withVersion(ckpt, 1))); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("v1 restore error = %v, want snapshot.ErrVersion", err)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("rejected v1 container registered %v", names)
	}
	// The same container at the current version restores: the rejection is
	// the version field's alone.
	if err := reg.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if names := reg.Names(); len(names) != 4 {
		t.Errorf("current-version restore registered %v, want 4 sketches", names)
	}
}

// FuzzCheckpointRestore throws arbitrary bytes at Registry.Restore: the
// contract is a typed error or a clean import, never a panic, whatever the
// container claims.
func FuzzCheckpointRestore(f *testing.F) {
	seedReg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, MaxError: 1})
	if err != nil {
		f.Fatal(err)
	}
	th := openTheta(f, seedReg, "fz.t")
	cm := openCountMin(f, seedReg, "fz.cm")
	for i := 0; i < 500; i++ {
		th.Update(0, uint64(i))
		cm.Update(0, uint64(i%17))
	}
	plain := seedReg.AppendCheckpoint(nil)
	f.Add(plain)
	// A record whose Spec carries flag bit 2, the removed autoscale plane's:
	// the whole restore fails with the typed error before anything registers.
	autoscaled := withSpecFlag(plain, 2)
	probe, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := probe.Restore(bytes.NewReader(autoscaled)); !errors.Is(err, wire.ErrRemovedAutoscale) || !errors.Is(err, wire.ErrBadSpec) {
		f.Fatalf("restoring a record with spec bit 2: %v, want wire.ErrRemovedAutoscale", err)
	}
	if names := probe.Names(); len(names) != 0 {
		f.Fatalf("rejected record registered %v", names)
	}
	probe.Close()
	f.Add(autoscaled)
	// The same sketches with every plane in their Specs: a view, a
	// decaying window with closed slots and a lifecycle on the Count-Min, a
	// window with a closed slot on the Θ.
	if err := errors.Join(
		seedReg.Apply("countmin", "fz.cm", fastsketches.Spec{
			View:    &fastsketches.ViewConfig{RefreshEvery: time.Hour, MaxAge: -1},
			Window:  &fastsketches.WindowConfig{Interval: time.Hour, Slots: 3, Decay: 0.5},
			IdleTTL: time.Hour, Pinned: true,
		}),
		seedReg.Apply("theta", "fz.t", fastsketches.Spec{
			Window: &fastsketches.WindowConfig{Interval: time.Hour, Slots: 2},
		}),
	); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		th.RotateNow()
		cm.RotateNow()
		th.Update(0, uint64(1000+i))
		cm.Update(0, uint64(i))
	}
	full := seedReg.AppendCheckpoint(nil)
	f.Add(full)
	seedReg.Close()
	f.Add([]byte{})
	f.Add(snapshot.AppendHeader(nil, 3))
	// A container stamped with the retired version 1 keeps the rejection
	// path fuzzed.
	f.Add(withVersion(full, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, Writers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		reg.Restore(bytes.NewReader(data))
	})
}
