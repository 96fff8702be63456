package client_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/client"
)

// TestE2E is the end-to-end serving smoke CI's e2e job runs against a real
// sketchd binary (SKETCHD_ADDR set); without the variable it boots an
// in-process server so the same coverage rides every `go test ./...`.
//
// It drives the full serving story: batched ingest from N concurrent
// connections, pipelined merged queries, a live resize under write fire, a
// materialized-view enable/serve/disable cycle, admin enumeration and drop —
// and the acceptance core: after a quiesce
// (resize-drain, which folds every completed update exactly into legacy
// state), served query results must MATCH in-process QueryInto results on
// the same stream. HLL registers (max) and Count-Min counters (sums) are
// deterministic functions of the ingested key multiset, so a mirror
// registry with identical geometry replaying the same keys must agree
// bit-for-bit — as must a Θ sketch still in its exact eager regime. A
// sampled-regime Θ sketch's retained set depends on prune timing (and so
// on the concurrent interleaving), and quantiles compaction is randomised
// per interleaving: those agree within the families' error bounds.
func TestE2E(t *testing.T) {
	addr := os.Getenv("SKETCHD_ADDR")
	if addr == "" {
		addr, _ = startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
	}
	cl, err := client.Dial(addr, client.Options{Conns: 4, BatchSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Make reruns against a long-lived external server idempotent.
	names := map[client.Family]string{
		client.Theta:     "e2e.theta",
		client.HLL:       "e2e.hll",
		client.CountMin:  "e2e.cm",
		client.Quantiles: "e2e.q",
	}
	for fam, name := range names {
		_ = cl.Drop(fam, name)
	}
	_ = cl.Drop(client.CountMin, "e2e.fire")
	_ = cl.Drop(client.Theta, "e2e.theta.exact")
	_ = cl.Drop(client.CountMin, "e2e.mr")

	// Discover the served geometry and build the in-process mirror with
	// the same one (family accuracy parameters are the shared library
	// defaults on both sides; CI starts sketchd without overrides).
	if err := cl.Create(client.Theta, names[client.Theta]); err != nil {
		t.Fatal(err)
	}
	inf, err := cl.Info(client.Theta, names[client.Theta])
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: inf.Spec.Shards, Writers: inf.Writers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()

	// ---- Phase 1: batched ingest + pipelined queries + resize under fire.
	t.Run("resize-under-fire", func(t *testing.T) {
		const writers = 4
		const perWriter = 20_000
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		fireDone := make(chan struct{})
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				b := cl.NewBatch(client.CountMin, "e2e.fire")
				for i := 0; i < perWriter; i++ {
					if err := b.Add(uint64(g)<<32 | uint64(i)); err != nil {
						errs <- err
						return
					}
					if i%4999 == 0 { // pipelined queries riding the ingest
						if _, err := cl.CountMinN("e2e.fire"); err != nil {
							errs <- err
							return
						}
					}
				}
				errs <- b.Flush()
			}(g)
		}
		// Walk the shard count while the writers hammer.
		go func() {
			defer close(fireDone)
			for _, s := range []int{inf.Spec.Shards + 2, 1, inf.Spec.Shards} {
				if err := cl.Resize(client.CountMin, "e2e.fire", s); err != nil {
					t.Errorf("resize under fire: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		<-fireDone
		for g := 0; g < writers; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		// Quiesce: one more resize drains everything into legacy; the total
		// weight is then exact and must cover every acked item.
		if err := cl.Resize(client.CountMin, "e2e.fire", inf.Spec.Shards+1); err != nil {
			t.Fatal(err)
		}
		n, err := cl.CountMinN("e2e.fire")
		if err != nil {
			t.Fatal(err)
		}
		if n != writers*perWriter {
			t.Fatalf("after quiesce N = %d, want exactly %d (acked batches lost or duplicated)",
				n, writers*perWriter)
		}
	})

	// ---- Phase 2: served results match in-process QueryInto on the same
	// stream.
	t.Run("consistency", func(t *testing.T) {
		const writers = 4
		const perWriter = 25_000
		const cmKeySpace = 1000
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				bt := cl.NewBatch(client.Theta, names[client.Theta])
				bh := cl.NewBatch(client.HLL, names[client.HLL])
				bc := cl.NewBatch(client.CountMin, names[client.CountMin])
				bq := cl.NewBatch(client.Quantiles, names[client.Quantiles])
				for i := 0; i < perWriter; i++ {
					k := uint64(g)*perWriter + uint64(i)
					if err := errors.Join(
						bt.Add(k), bh.Add(k), bc.Add(k%cmKeySpace),
						bq.AddFloat(float64(k%4096)),
					); err != nil {
						errs <- err
						return
					}
				}
				errs <- errors.Join(bt.Flush(), bh.Flush(), bc.Flush(), bq.Flush())
			}(g)
		}
		wg.Wait()
		for g := 0; g < writers; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}

		// Mirror the identical stream in-process (order-independent for
		// Θ/HLL/Count-Min, so a single sequential lane suffices).
		mtH, _ := mirror.OpenTheta(names[client.Theta], fastsketches.Spec{})
		mhH, _ := mirror.OpenHLL(names[client.HLL], fastsketches.Spec{})
		mcH, _ := mirror.OpenCountMin(names[client.CountMin], fastsketches.Spec{})
		mqH, _ := mirror.OpenQuantiles(names[client.Quantiles], fastsketches.Spec{})
		mt, mh := mtH.Sketch(), mhH.Sketch()
		mc, mq := mcH.Sketch(), mqH.Sketch()
		for g := 0; g < writers; g++ {
			for i := 0; i < perWriter; i++ {
				k := uint64(g)*perWriter + uint64(i)
				mt.Update(0, k)
				mh.Update(0, k)
				mc.Update(0, k%cmKeySpace)
				mq.Update(0, float64(k%4096))
			}
		}

		// Quiesce both sides identically: a resize is an exact drain — all
		// completed updates fold into legacy state, new shards start empty —
		// so the merged state on both sides is the same deterministic
		// function of the key multiset and the epoch history.
		quiesceTo := inf.Spec.Shards + 1
		for fam, sk := range map[client.Family]interface{ Resize(int) error }{
			client.Theta:     mt,
			client.HLL:       mh,
			client.CountMin:  mc,
			client.Quantiles: mq,
		} {
			if err := cl.Resize(fam, names[fam], quiesceTo); err != nil {
				t.Fatal(err)
			}
			if err := sk.Resize(quiesceTo); err != nil {
				t.Fatal(err)
			}
		}

		// Θ, sampled regime (100k keys ≫ the eager window): the retained
		// sample depends on prune timing and thus on the interleaving, so
		// served and in-process agree within the estimator's accuracy
		// bound, both sides centred on the same truth.
		served, err := cl.ThetaEstimate(names[client.Theta])
		if err != nil {
			t.Fatal(err)
		}
		mtAcc := mt.NewAccumulator()
		mt.QueryInto(mtAcc)
		local := mtAcc.Estimate()
		truth := float64(writers * perWriter)
		if math.Abs(served/local-1) > 0.05 ||
			math.Abs(served/truth-1) > 0.05 || math.Abs(local/truth-1) > 0.05 {
			t.Errorf("theta: served %v vs in-process %v (truth %v) beyond the accuracy bound",
				served, local, truth)
		}

		// Θ, exact regime: a stream inside the eager window drains to a
		// state that IS order-independent, so served and in-process must
		// agree bit-for-bit.
		const exactKeys = 1000
		be := cl.NewBatch(client.Theta, "e2e.theta.exact")
		for i := 0; i < exactKeys; i++ {
			if err := be.Add(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(); err != nil {
			t.Fatal(err)
		}
		meH, _ := mirror.OpenTheta("e2e.theta.exact", fastsketches.Spec{})
		me := meH.Sketch()
		for i := 0; i < exactKeys; i++ {
			me.Update(0, uint64(i))
		}
		if err := cl.Resize(client.Theta, "e2e.theta.exact", quiesceTo); err != nil {
			t.Fatal(err)
		}
		if err := me.Resize(quiesceTo); err != nil {
			t.Fatal(err)
		}
		servedExact, err := cl.ThetaEstimate("e2e.theta.exact")
		if err != nil {
			t.Fatal(err)
		}
		meAcc := me.NewAccumulator()
		me.QueryInto(meAcc)
		if localExact := meAcc.Estimate(); servedExact != localExact {
			t.Errorf("theta exact regime: served %v != in-process QueryInto %v", servedExact, localExact)
		} else if servedExact != exactKeys {
			t.Errorf("theta exact regime: estimate %v, want exactly %d", servedExact, exactKeys)
		}

		// HLL: bit-identical estimates.
		served, err = cl.HLLEstimate(names[client.HLL])
		if err != nil {
			t.Fatal(err)
		}
		mhAcc := mh.NewAccumulator()
		mh.QueryInto(mhAcc)
		local = mhAcc.Estimate()
		if served != local {
			t.Errorf("hll: served %v != in-process QueryInto %v", served, local)
		}

		// Count-Min: exact total weight and identical per-key estimates.
		n, err := cl.CountMinN(names[client.CountMin])
		if err != nil {
			t.Fatal(err)
		}
		acc := mc.NewAccumulator()
		mc.QueryInto(acc)
		if n != acc.N() || n != writers*perWriter {
			t.Errorf("countmin: served N %d, in-process %d, ingested %d", n, acc.N(), writers*perWriter)
		}
		for probe := uint64(0); probe < 20; probe++ {
			key := probe * 47 % cmKeySpace
			servedCnt, err := cl.Count(names[client.CountMin], key)
			if err != nil {
				t.Fatal(err)
			}
			if localCnt := mc.Estimate(key); servedCnt != localCnt {
				t.Errorf("countmin key %d: served %d != in-process %d", key, servedCnt, localCnt)
			}
		}

		// Quantiles: compaction randomisation depends on the concurrent
		// interleaving, so served and mirror ranks agree within a generous
		// multiple of the family's rank-error bound rather than exactly.
		qn, err := cl.QuantilesN(names[client.Quantiles])
		if err != nil {
			t.Fatal(err)
		}
		if qn != writers*perWriter {
			t.Errorf("quantiles: served N %d, want %d", qn, writers*perWriter)
		}
		qacc := mq.NewAccumulator()
		for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
			v, err := cl.Quantile(names[client.Quantiles], phi)
			if err != nil {
				t.Fatal(err)
			}
			mq.QueryInto(qacc)
			localRank := qacc.Rank(v)
			if math.Abs(localRank-phi) > 0.05 {
				t.Errorf("quantiles: served q(%v)=%v has in-process rank %v", phi, v, localRank)
			}
		}
	})

	// ---- Phase 3: materialized views over the wire. Enable a fast-refresh
	// view on the Θ sketch phase 2 populated, check Info reports it, check
	// the served estimate (now a single view-accumulator fold server-side)
	// still answers correctly and tracks fresh ingest within the view's
	// staleness bound, then disable and confirm the sketch serves live again.
	t.Run("views", func(t *testing.T) {
		name := names[client.Theta]
		const refreshEvery = 5 * time.Millisecond
		if err := cl.EnableView(name, refreshEvery, -1); err != nil {
			t.Fatal(err)
		}
		vinf, err := cl.Info(client.Theta, name)
		if err != nil {
			t.Fatal(err)
		}
		if v := vinf.Spec.View; v == nil || v.RefreshEvery != refreshEvery || v.MaxAge != -1 {
			t.Fatalf("Info after EnableView = %+v, want the declared view", vinf.Spec.View)
		}
		// Phase 2 ingested 100k distinct keys; the viewed estimate must sit
		// inside the same accuracy envelope the live fold honoured.
		ingested := 4 * 25_000.0
		est, err := cl.ThetaEstimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est/ingested-1) > 0.05 {
			t.Fatalf("viewed estimate %v beyond the accuracy bound around %v", est, ingested)
		}
		// Fresh ingest becomes visible within S·r + one refresh interval:
		// poll past one refresh rather than assuming scheduler timing.
		const extra = 50_000
		bv := cl.NewBatch(client.Theta, name)
		for i := 0; i < extra; i++ {
			if err := bv.Add(1<<40 | uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := bv.Flush(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			est, err = cl.ThetaEstimate(name)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est/(ingested+extra)-1) <= 0.05 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("viewed estimate %v never converged to %v: refresher not folding new state",
					est, ingested+extra)
			}
			time.Sleep(refreshEvery)
		}
		if err := cl.Apply(client.AllFamilies, name, client.Spec{ViewOff: true}); err != nil {
			t.Fatal(err)
		}
		vinf, err = cl.Info(client.Theta, name)
		if err != nil {
			t.Fatal(err)
		}
		if vinf.Spec.View != nil {
			t.Fatal("view still on after Spec.ViewOff")
		}
		// A view on a name with no sketches is a typed server error on a
		// healthy connection, not a hangup.
		if err := cl.EnableView("e2e.absent", refreshEvery, -1); err == nil {
			t.Error("view on an absent name did not error")
		} else {
			var se *client.Error
			if !errors.As(err, &se) {
				t.Errorf("view on an absent name: error %v is not a server-typed *client.Error", err)
			}
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("connection unhealthy after typed error: %v", err)
		}
	})

	// ---- Phase 4: remote merge. A second daemon (always in-process; the
	// main server may be the CI binary) ingests a disjoint key range, then
	// the client snapshots the peer's sketch and restores it into the main
	// daemon, which folds it in. Count-Min total weight is exact after quiesces on both sides, so
	// the fold must account for every key from both daemons exactly once.
	t.Run("merge-remote", func(t *testing.T) {
		peerAddr, _ := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 2})
		peer, err := client.Dial(peerAddr, client.Options{Conns: 1, BatchSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()

		const half = 10_000
		for who, rng := range map[*client.Client][2]uint64{
			cl:   {0, half},
			peer: {half, 2 * half},
		} {
			b := who.NewBatch(client.CountMin, "e2e.mr")
			for i := rng[0]; i < rng[1]; i++ {
				if err := b.Add(i % 701); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := who.Resize(client.CountMin, "e2e.mr", inf.Spec.Shards+1); err != nil {
				t.Fatal(err)
			}
		}

		snap, err := peer.Snapshot(client.CountMin, "e2e.mr")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Restore(client.CountMin, "e2e.mr", snap); err != nil {
			t.Fatal(err)
		}
		n, err := cl.CountMinN("e2e.mr")
		if err != nil {
			t.Fatal(err)
		}
		if n != 2*half {
			t.Fatalf("merged N = %d, want exactly %d (remote fold lost or duplicated weight)", n, 2*half)
		}
		// The in-process union of the same two streams is the reference: a
		// single sketch fed both ranges must agree with the cross-daemon
		// fold per key (Count-Min counters are deterministic in the multiset).
		refH, _ := mirror.OpenCountMin("e2e.mr", fastsketches.Spec{})
		ref := refH.Sketch()
		for i := uint64(0); i < 2*half; i++ {
			ref.Update(0, i%701)
		}
		if err := ref.Resize(inf.Spec.Shards + 1); err != nil {
			t.Fatal(err)
		}
		for probe := uint64(0); probe < 20; probe++ {
			key := probe * 37 % 701
			servedCnt, err := cl.Count("e2e.mr", key)
			if err != nil {
				t.Fatal(err)
			}
			if refCnt := ref.Estimate(key); servedCnt != refCnt {
				t.Errorf("key %d: merged count %d != in-process union %d", key, servedCnt, refCnt)
			}
		}
		// The peer was a read-only participant.
		pn, err := peer.CountMinN("e2e.mr")
		if err != nil {
			t.Fatal(err)
		}
		if pn != half {
			t.Errorf("peer N = %d after merge, want untouched %d", pn, half)
		}
	})

	// ---- Phase 5: enumeration and drop.
	t.Run("admin", func(t *testing.T) {
		got, err := cl.Names()
		if err != nil {
			t.Fatal(err)
		}
		for fam, name := range names {
			if !slices.Contains(got, fmt.Sprintf("%s/%s", fam, name)) {
				t.Errorf("Names() = %v missing %s/%s", got, fam, name)
			}
		}
		if err := cl.Drop(client.CountMin, "e2e.fire"); err != nil {
			t.Fatal(err)
		}
		got, err = cl.Names()
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(got, "countmin/e2e.fire") {
			t.Error("dropped sketch still enumerated")
		}
	})
}
