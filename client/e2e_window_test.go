package client_test

import (
	"errors"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/client"
)

// TestE2EWindows drives the windowing story over the wire end to end:
// windowed queries on a window-less sketch fail with a typed server error on
// a healthy connection, EnableWindow spans every family registered under the
// name (stripping decay from the families that cannot honour it), Info
// echoes the declared geometry and rotation liveness, every family's
// windowed queries serve the in-process handle's answers, windowed and
// decayed queries serve exact answers across rotations and an expulsion, and
// Spec.WindowOff restores the window-less behaviour without touching the
// cumulative plane.
//
// The server is always in-process: the test reaches through the registry for
// deterministic RotateNow calls, standing in for the wall-clock rotator.
func TestE2EWindows(t *testing.T) {
	addr, reg := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	cl, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const name = "e2e.win"
	for _, fam := range []client.Family{client.Theta, client.HLL, client.CountMin, client.Quantiles} {
		if err := cl.Create(fam, name); err != nil {
			t.Fatal(err)
		}
	}
	// The registry-side handle drives rotations; it aliases the same sketch
	// the server serves.
	cm, err := reg.OpenCountMin(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	// Windowed queries without a declared window are typed errors, not
	// hangups.
	if _, err := cl.WindowCountMinN(name); err == nil {
		t.Fatal("windowed query without a window did not error")
	} else {
		var se *client.Error
		if !errors.As(err, &se) {
			t.Fatalf("windowed query error %v is not a server-typed *client.Error", err)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unhealthy after typed error: %v", err)
	}

	// Declare a two-slot decayed window across the whole name. Decay sticks
	// on Count-Min and is stripped from the other three families.
	if err := cl.EnableWindow(name, time.Hour, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []client.Family{client.Theta, client.HLL, client.CountMin, client.Quantiles} {
		inf, err := cl.Info(fam, name)
		if err != nil {
			t.Fatal(err)
		}
		wantDecay := 0.0
		if fam == client.CountMin {
			wantDecay = 0.5
		}
		if w := inf.Spec.Window; w == nil || w.Slots != 2 || w.Interval != time.Hour ||
			w.Decay != wantDecay || inf.WindowRotations != 0 {
			t.Fatalf("%s Info after EnableWindow = %+v, want a fresh 2-slot hour window", fam, inf)
		}
	}

	// Every Count-Min update hits the single key 7, so per-key estimates are
	// exact sums and the windowed arithmetic below is deterministic.
	next := 3 // alternate drain-resize targets: same-size resizes no-op
	ingest := func(n int) {
		t.Helper()
		b := cl.NewBatch(client.CountMin, name)
		for i := 0; i < n; i++ {
			if err := b.Add(7); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		// Quiesce: an exact drain folds every acked update into the live
		// interval's carry before the rotation closes it.
		if err := cl.Resize(client.CountMin, name, next); err != nil {
			t.Fatal(err)
		}
		next = 5 - next
	}

	// Theta rides along to prove windowed queries span families: 1000
	// distinct keys stay inside the eager exact regime.
	bt := cl.NewBatch(client.Theta, name)
	for i := 0; i < 1000; i++ {
		if err := bt.Add(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Resize(client.Theta, name, 3); err != nil {
		t.Fatal(err)
	}
	if est, err := cl.ThetaWindowEstimate(name); err != nil || est != 1000 {
		t.Fatalf("ThetaWindowEstimate = (%v, %v), want exactly 1000 in the eager regime", est, err)
	}

	// HLL and Quantiles ride along too, each quiesced by the same exact
	// drain. Every served windowed answer must equal the in-process
	// handle's windowed answer on the same sketch, and the windowed
	// Quantiles count is exactly what was ingested.
	const nq = 1000
	bh, bq := cl.NewBatch(client.HLL, name), cl.NewBatch(client.Quantiles, name)
	for i := 0; i < nq; i++ {
		if err := errors.Join(bh.Add(uint64(i)), bq.AddFloat(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(bh.Flush(), bq.Flush(),
		cl.Resize(client.HLL, name, 3), cl.Resize(client.Quantiles, name, 3)); err != nil {
		t.Fatal(err)
	}
	th, err := reg.OpenTheta(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	hl, err := reg.OpenHLL(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.OpenQuantiles(name, fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if want, ok := th.Sketch().WindowEstimate(); !ok {
		t.Fatal("in-process Θ window missing")
	} else if got, err := cl.ThetaWindowEstimate(name); err != nil || got != want {
		t.Fatalf("ThetaWindowEstimate = (%v, %v), in-process %v", got, err, want)
	}
	if want, ok := hl.Sketch().WindowEstimate(); !ok {
		t.Fatal("in-process HLL window missing")
	} else if got, err := cl.HLLWindowEstimate(name); err != nil || got != want {
		t.Fatalf("HLLWindowEstimate = (%v, %v), in-process %v", got, err, want)
	}
	if got, err := cl.WindowQuantilesN(name); err != nil || got != nq {
		t.Fatalf("WindowQuantilesN = (%d, %v), want exactly %d", got, err, nq)
	}
	if want, ok := q.Sketch().WindowN(); !ok || want != nq {
		t.Fatalf("in-process WindowN = (%d, %v), want %d", want, ok, nq)
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.99, 1} {
		want, ok := q.Sketch().WindowQuantile(phi)
		if !ok {
			t.Fatal("in-process Quantiles window missing")
		}
		if got, err := cl.WindowQuantile(name, phi); err != nil || got != want {
			t.Fatalf("WindowQuantile(%v) = (%v, %v), in-process %v", phi, got, err, want)
		}
	}

	// Three closed intervals of 100, 40 and 10 through a 2-slot ring with
	// decay 0.5:
	//   rotate 1: ring [100],     decay plane 100
	//   rotate 2: ring [100, 40], decay plane 0.5·100 + 40 = 90
	//   rotate 3: ring [40, 10],  decay plane 0.5·90 + 10 = 55   (100 expelled)
	for _, n := range []int{100, 40, 10} {
		ingest(n)
		if !cm.RotateNow() {
			t.Fatal("RotateNow returned false on a declared window")
		}
	}
	if got, err := cl.WindowCount(name, 7); err != nil || got != 50 {
		t.Fatalf("WindowCount after expulsion = (%d, %v), want exactly 50", got, err)
	}
	if got, err := cl.WindowCountMinN(name); err != nil || got != 50 {
		t.Fatalf("WindowCountMinN after expulsion = (%d, %v), want exactly 50", got, err)
	}
	if got, err := cl.DecayedCount(name, 7); err != nil || got != 55 {
		t.Fatalf("DecayedCount = (%d, %v), want exactly 55", got, err)
	}
	// The cumulative plane never forgets: the expelled interval still counts.
	if got, err := cl.Count(name, 7); err != nil || got != 150 {
		t.Fatalf("cumulative Count = (%d, %v), want all 150", got, err)
	}
	inf, err := cl.Info(client.CountMin, name)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Spec.Window == nil || inf.WindowRotations != 3 {
		t.Fatalf("Info after 3 rotations = %+v", inf)
	}

	// Spec.WindowOff spans the name, windowed queries fail typed again, and
	// the cumulative plane is untouched — a second one is a no-op.
	for i := 0; i < 2; i++ {
		if err := cl.Apply(client.AllFamilies, name, client.Spec{WindowOff: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WindowCountMinN(name); err == nil {
			t.Fatal("windowed query after Spec.WindowOff did not error")
		}
		inf, err = cl.Info(client.CountMin, name)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Spec.Window != nil {
			t.Fatalf("Info after Spec.WindowOff = %+v, want window gone", inf)
		}
		if got, err := cl.Count(name, 7); err != nil || got != 150 {
			t.Fatalf("cumulative Count after Spec.WindowOff = (%d, %v), want 150", got, err)
		}
	}
}
