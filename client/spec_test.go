package client_test

// The one control plane, checked from outside: a Spec is validated and
// applied the same way whether it reaches a sketch through the library's
// Open*, an OpApply frame or a checkpoint record, and the Spec in force
// survives checkpoint → restore and the wire unchanged.

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/client"
	"fastsketches/internal/clock"
	"fastsketches/internal/snapshot"
	"fastsketches/internal/wire"
)

var specFamilies = []client.Family{client.Theta, client.HLL, client.Quantiles, client.CountMin}

// openSpec applies spec through the family's Open*.
func openSpec(reg *fastsketches.Registry, fam client.Family, name string, spec fastsketches.Spec) error {
	var err error
	switch fam {
	case client.Theta:
		_, err = reg.OpenTheta(name, spec)
	case client.HLL:
		_, err = reg.OpenHLL(name, spec)
	case client.Quantiles:
		_, err = reg.OpenQuantiles(name, spec)
	case client.CountMin:
		_, err = reg.OpenCountMin(name, spec)
	}
	return err
}

// smallConfig keeps every family's sketches small: these tests open many.
var smallConfig = fastsketches.RegistryConfig{
	Shards: 2, Writers: 1, ThetaLgK: 6, HLLPrecision: 6, QuantilesK: 16,
	CountMinEpsilon: 0.05, CountMinDelta: 0.1,
}

// TestSpecRejectedOnEveryPath sends the same bad Specs through Open*, a
// checkpoint Restore and OpApply: each path returns the same typed error —
// ErrConfig, with the same message over the wire — and creates no sketch.
func TestSpecRejectedOnEveryPath(t *testing.T) {
	addr, reg := startServer(t, smallConfig)
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	view := &client.ViewConfig{RefreshEvery: time.Hour}
	for _, tc := range []struct {
		name string
		fam  client.Family
		spec client.Spec
	}{
		{"negative shards", client.CountMin, client.Spec{Shards: -1}},
		{"too many shards", client.HLL, client.Spec{Shards: wire.MaxShards + 1}},
		{"negative idle TTL", client.Theta, client.Spec{IdleTTL: -time.Second}},
		{"view on and off", client.Quantiles, client.Spec{View: view, ViewOff: true}},
		{"negative view refresh", client.CountMin, client.Spec{View: &client.ViewConfig{RefreshEvery: -time.Second}}},
		{"window on and off", client.HLL, client.Spec{Window: &client.WindowConfig{}, WindowOff: true}},
		{"negative window interval", client.Theta, client.Spec{Window: &client.WindowConfig{Interval: -time.Second}}},
		{"too many window slots", client.CountMin, client.Spec{Window: &client.WindowConfig{Slots: 1 << 20}}},
		{"decay above 1", client.CountMin, client.Spec{Window: &client.WindowConfig{Decay: 1.5}}},
		{"decay on theta", client.Theta, client.Spec{Window: &client.WindowConfig{Decay: 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			openErr := openSpec(reg, tc.fam, "bad", tc.spec)
			if !errors.Is(openErr, fastsketches.ErrConfig) {
				t.Fatalf("Open*: %v, want ErrConfig", openErr)
			}

			rec := snapshot.Record{Family: tc.fam, Name: []byte("bad"), Spec: tc.spec}
			ckpt := snapshot.AppendRecord(snapshot.AppendHeader(nil, 1), &rec)
			restoreErr := reg.Restore(bytes.NewReader(ckpt))
			if !errors.Is(restoreErr, fastsketches.ErrConfig) || !strings.HasSuffix(restoreErr.Error(), openErr.Error()) {
				t.Fatalf("Restore: %v, want %v", restoreErr, openErr)
			}

			var served *client.Error
			if err := cl.Apply(tc.fam, "bad", tc.spec); !errors.As(err, &served) || served.Msg != openErr.Error() {
				t.Fatalf("OpApply: %v, want %v", err, openErr)
			}
			if names := reg.Names(); len(names) != 0 {
				t.Fatalf("a rejected Spec created %v", names)
			}
		})
	}
}

// randomSpec draws a valid Spec declaring every plane at random: IdleTTL,
// Pinned, a view, a window, and a decay plane where the family has one.
// Timers are hours long, so no refresher or rotator acts while the test
// runs.
func randomSpec(rng *rand.Rand, fam client.Family) client.Spec {
	hours := func() time.Duration { return time.Duration(1+rng.Intn(100)) * time.Hour }
	s := client.Spec{Shards: 1 + rng.Intn(6), Pinned: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		s.IdleTTL = time.Duration(1+rng.Intn(1000)) * time.Minute
	}
	if rng.Intn(3) > 0 {
		s.View = &client.ViewConfig{RefreshEvery: hours()}
		if rng.Intn(2) == 0 {
			s.View.MaxAge = []time.Duration{-1, hours()}[rng.Intn(2)]
		}
	}
	if rng.Intn(3) > 0 {
		s.Window = &client.WindowConfig{Interval: hours(), Slots: 1 + rng.Intn(8)}
		if fam.Decayable() && rng.Intn(2) == 0 {
			s.Window.Decay = rng.Float64() * 0.99
		}
	}
	return s
}

// normalised is the Spec a sketch reports once s is in force: every plane
// with its defaults filled in and the system clock.
func normalised(s client.Spec) client.Spec {
	if v := s.View; v != nil {
		n := *v
		if n.MaxAge == 0 {
			n.MaxAge = 4 * n.RefreshEvery
		}
		n.Clock = clock.System{}
		s.View = &n
	}
	if s.Window != nil {
		w, _ := s.Window.Normalise()
		s.Window = &w
	}
	return s
}

// withoutClocks is s as the wire carries it: planes without a Clock.
func withoutClocks(s client.Spec) client.Spec {
	if s.View != nil {
		v := *s.View
		v.Clock, s.View = nil, &v
	}
	if s.Window != nil {
		w := *s.Window
		w.Clock, s.Window = nil, &w
	}
	return s
}

// sameSpec compares two Specs by value, planes included.
func sameSpec(t *testing.T, what string, got, want client.Spec) {
	t.Helper()
	eq := got.Shards == want.Shards && got.IdleTTL == want.IdleTTL && got.Pinned == want.Pinned &&
		got.ViewOff == want.ViewOff && got.WindowOff == want.WindowOff &&
		(got.View == nil) == (want.View == nil) && (got.View == nil || *got.View == *want.View) &&
		(got.Window == nil) == (want.Window == nil) && (got.Window == nil || *got.Window == *want.Window)
	if !eq {
		t.Fatalf("%s Spec:\n got %+v (view %+v, window %+v)\nwant %+v (view %+v, window %+v)",
			what, got, got.View, got.Window, want, want.View, want.Window)
	}
}

// TestSpecRoundTripsEveryPath is the control plane's property test: for every
// family and a random Spec, the Spec in force after Open* is the normalised
// Spec; a checkpoint restored into a fresh registry reports it unchanged;
// over loopback, client.Apply → client.Info reports it too; and OpRestore
// folds contents only, leaving the receiver's Spec as it was.
func TestSpecRoundTripsEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 6; round++ {
		for _, fam := range specFamilies {
			spec := randomSpec(rng, fam)
			want := normalised(spec)

			src, err := fastsketches.NewRegistry(smallConfig)
			if err != nil {
				t.Fatal(err)
			}
			if err := openSpec(src, fam, "prop", spec); err != nil {
				t.Fatalf("%s: Open* %+v: %v", fam, spec, err)
			}
			inf, _ := src.Info(fam.String(), "prop")
			sameSpec(t, fam.String()+" Open*", inf.Spec, want)

			dst, err := fastsketches.NewRegistry(smallConfig)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(bytes.NewReader(src.AppendCheckpoint(nil))); err != nil {
				t.Fatal(err)
			}
			inf, _ = dst.Info(fam.String(), "prop")
			sameSpec(t, fam.String()+" restored", inf.Spec, want)
			src.Close()
			dst.Close()

			addr, reg := startServer(t, smallConfig)
			cl, err := client.Dial(addr, client.Options{Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Apply(fam, "prop", spec); err != nil {
				t.Fatal(err)
			}
			served, err := cl.Info(fam, "prop")
			if err != nil {
				t.Fatal(err)
			}
			sameSpec(t, fam.String()+" served", served.Spec, withoutClocks(want))

			// OpRestore folds a snapshot of another sketch into "prop": its
			// Spec stays exactly as declared.
			if err := cl.Create(fam, "other"); err != nil {
				t.Fatal(err)
			}
			snap, err := cl.Snapshot(fam, "other")
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Restore(fam, "prop", snap); err != nil {
				t.Fatal(err)
			}
			inf, _ = reg.Info(fam.String(), "prop")
			sameSpec(t, fam.String()+" after OpRestore", inf.Spec, want)
			cl.Close()
		}
	}
}
