package core_test

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches/internal/core"
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/relax"
	"fastsketches/internal/theta"
)

const seed = murmur.DefaultSeed

// newThetaFramework builds a concurrent Θ sketch for tests.
func newThetaFramework(cfg core.Config, lgK int) (*core.Framework[uint64], *theta.Composable) {
	comp := theta.NewComposable(lgK, seed)
	cfg.K = 1 << lgK
	fw := core.New[uint64](comp, cfg)
	return fw, comp
}

// feed pushes n unique keys (disjoint per writer) through the framework with
// the given number of writer goroutines and closes it.
func feed(fw *core.Framework[uint64], writers, n int) {
	fw.Start()
	var wg sync.WaitGroup
	per := n / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < per; i++ {
				fw.Update(w, theta.HashKey(base+uint64(i), seed))
			}
		}(w)
	}
	wg.Wait()
	fw.Close()
}

func TestConfigValidation(t *testing.T) {
	comp := theta.NewComposable(8, seed)
	for name, cfg := range map[string]core.Config{
		"zero workers":     {Workers: 0},
		"negative workers": {Workers: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			core.New[uint64](comp, cfg)
		}()
	}
}

func TestDeriveBufferSize(t *testing.T) {
	cases := []struct {
		k    int
		e    float64
		n    int
		want int
	}{
		{4096, 1.0, 1, 16},  // eager disabled → default
		{4096, 0.04, 12, 7}, // 0.04·4094/(0.96·24) ≈ 7.1
		{4096, 0.04, 1, 16}, // clamped high
		{64, 0.01, 8, 1},    // clamped low
	}
	for _, c := range cases {
		if got := core.DeriveBufferSize(c.k, c.e, c.n); got != c.want {
			t.Errorf("DeriveBufferSize(%d, %v, %d) = %d, want %d", c.k, c.e, c.n, got, c.want)
		}
	}
}

func TestDeriveEagerLimit(t *testing.T) {
	if got := core.DeriveEagerLimit(0.04); got != 1250 {
		t.Errorf("DeriveEagerLimit(0.04) = %d, want 1250 (the paper's 2/e²)", got)
	}
	if got := core.DeriveEagerLimit(1.0); got != 0 {
		t.Errorf("DeriveEagerLimit(1.0) = %d, want 0 (disabled)", got)
	}
}

func TestRelaxationBoundValue(t *testing.T) {
	fw, _ := newThetaFramework(core.Config{Workers: 4, BufferSize: 8, MaxError: 1}, 12)
	if got := fw.Relaxation(); got != 2*4*8 {
		t.Errorf("OptParSketch relaxation = %d, want 64", got)
	}
	fw2, _ := newThetaFramework(core.Config{Workers: 4, BufferSize: 8, MaxError: 1, Mode: core.ModeUnoptimised}, 12)
	if got := fw2.Relaxation(); got != 4*8 {
		t.Errorf("ParSketch relaxation = %d, want 32", got)
	}
}

func TestSingleWriterExactAfterClose(t *testing.T) {
	// After Close the global sketch has every update; with n < 2k the Θ
	// sketch is in exact mode, so the estimate must equal n precisely.
	for _, mode := range []core.Mode{core.ModeOptimised, core.ModeUnoptimised} {
		fw, comp := newThetaFramework(core.Config{Workers: 1, BufferSize: 4, MaxError: 1, Mode: mode}, 12)
		feed(fw, 1, 5000)
		if est := comp.Estimate(); est != 5000 {
			t.Errorf("%v: estimate after close = %v, want exactly 5000", mode, est)
		}
	}
}

func TestMultiWriterExactAfterClose(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeOptimised, core.ModeUnoptimised} {
		fw, comp := newThetaFramework(core.Config{Workers: 4, BufferSize: 16, MaxError: 1, Mode: mode}, 12)
		feed(fw, 4, 8000) // 2000 each, all distinct; 8000 < 2k = 8192 → exact
		if est := comp.Estimate(); est != 8000 {
			t.Errorf("%v: estimate after close = %v, want exactly 8000", mode, est)
		}
	}
}

func TestEagerPhaseQueriesExact(t *testing.T) {
	// During the eager phase every completed update is immediately visible:
	// a query between updates must count exactly.
	fw, comp := newThetaFramework(core.Config{Workers: 1, MaxError: 0.04, BufferSize: 5}, 12)
	fw.Start()
	defer fw.Close()
	limit := core.DeriveEagerLimit(0.04) // 1250
	for i := 0; i < limit; i++ {
		fw.Update(0, theta.HashKey(uint64(i), seed))
		if est := comp.Estimate(); est != float64(i+1) {
			t.Fatalf("eager-phase query after %d updates = %v, want exact", i+1, est)
		}
	}
	if !fw.Lazy() {
		t.Error("framework should have switched to lazy after the eager limit")
	}
}

func TestEagerToLazySwitch(t *testing.T) {
	fw, comp := newThetaFramework(core.Config{Workers: 2, MaxError: 0.04, BufferSize: 5}, 12)
	if fw.Lazy() {
		t.Fatal("framework should start eager with MaxError < 1")
	}
	feed(fw, 2, 8000) // eager limit 1250 < 8000 forces the switch; 8000 < 2k stays exact
	if !fw.Lazy() {
		t.Error("framework never switched to lazy")
	}
	if est := comp.Estimate(); est != 8000 {
		t.Errorf("estimate = %v, want exactly 8000 (n < 2k)", est)
	}
}

func TestEagerDisabled(t *testing.T) {
	fw, _ := newThetaFramework(core.Config{Workers: 1, MaxError: 1.0, BufferSize: 4}, 12)
	if !fw.Lazy() {
		t.Error("MaxError=1.0 must disable the eager phase")
	}
}

// checkWindow feeds n unique keys from the given number of writers while a
// querier races the sketch, and holds every answer to the r-relaxation
// window completedBefore(invoke) − r ≤ estimate ≤ startedBefore(response)
// through relax.Oracle. With all-unique keys and n < 2k the sketch stays in
// exact mode, so the estimate counts the hashes it has absorbed.
func checkWindow(t *testing.T, fw *core.Framework[uint64], comp *theta.Composable, writers, n int) {
	t.Helper()
	r := int64(fw.Relaxation())
	o := relax.NewOracle()
	fw.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c1 := o.Invoke()
			o.Respond(c1, int64(comp.Estimate()), r)
			runtime.Gosched()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/writers; i++ {
				o.Started()
				fw.Update(w, theta.HashKey(base+uint64(i), seed))
				o.Completed()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-queryDone
	fw.Close()
	tl := o.Tally()
	t.Logf("%d queries, max staleness %d of r=%d", tl.Queries, tl.MaxStaleness, r)
	if tl.Lower != 0 {
		t.Errorf("%d queries missed more than r=%d completed updates (%v)", tl.Lower, r, o.Err())
	}
	if tl.Upper != 0 {
		t.Errorf("%d queries observed more uniques than were ever started (%v)", tl.Upper, o.Err())
	}
}

func TestRelaxationBoundHolds(t *testing.T) {
	// The defining guarantee (Theorem 1): a query reflects all but at most
	// r = 2Nb of the updates that completed before it, and nothing that was
	// never started.
	const writers, b, n = 4, 8, 4000 // r = 64; 2k = 8192 > n → exact mode
	fw, comp := newThetaFramework(core.Config{Workers: writers, BufferSize: b, MaxError: 1}, 12)
	checkWindow(t, fw, comp, writers, n)
	if est := comp.Estimate(); est != n {
		t.Errorf("final estimate %v, want exactly %d", est, n)
	}
}

func TestEstimateNeverExceedsIngested(t *testing.T) {
	// In exact mode the estimate counts retained distinct hashes, which can
	// never exceed the number of updates ingested so far — nor lag them by
	// more than r.
	const writers, n = 4, 6000
	fw, comp := newThetaFramework(core.Config{Workers: writers, BufferSize: 4, MaxError: 1}, 12)
	checkWindow(t, fw, comp, writers, n)
}

func TestPreFilteringReducesWork(t *testing.T) {
	// Once Θ shrinks, most updates should be dropped by shouldAdd before
	// buffering — the paper's key to scalability ("Θ quickly becomes small
	// enough to allow filtering out most of the updates").
	const n = 1 << 19
	fw, _ := newThetaFramework(core.Config{Workers: 1, BufferSize: 16, MaxError: 1}, 8) // k=256
	feed(fw, 1, n)
	st := fw.Stats()
	if st.Filtered == 0 {
		t.Fatal("no updates were pre-filtered")
	}
	frac := float64(st.Filtered) / float64(n)
	if frac < 0.9 {
		t.Errorf("only %.1f%% of updates filtered; expected >90%% for n≫k", frac*100)
	}
}

func TestAccuracyUnderConcurrency(t *testing.T) {
	// End-to-end accuracy: concurrent ingestion of a large unique stream
	// should estimate within a few RSE of the truth.
	const writers, n = 4, 1 << 20
	fw, comp := newThetaFramework(core.Config{Workers: writers, MaxError: 0.04}, 12)
	feed(fw, writers, n)
	re := comp.Estimate()/float64(n) - 1
	if math.Abs(re) > 4*theta.RSEBound(4096) {
		t.Errorf("concurrent estimate error %.4f exceeds 4·RSE", re)
	}
}

func TestStartTwicePanics(t *testing.T) {
	fw, _ := newThetaFramework(core.Config{Workers: 1, BufferSize: 2, MaxError: 1}, 8)
	fw.Start()
	defer fw.Close()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	fw.Start()
}

func TestCloseWithoutStartDrains(t *testing.T) {
	// Failure injection: the propagator never ran (stalled forever). Close
	// must still drain local buffers so no data is lost.
	fw, comp := newThetaFramework(core.Config{Workers: 1, BufferSize: 64, MaxError: 1}, 12)
	for i := 0; i < 100; i++ { // fewer than b: nothing ever published
		fw.Update(0, theta.HashKey(uint64(i), seed))
	}
	fw.Close()
	if est := comp.Estimate(); est != 100 {
		t.Errorf("estimate after drain = %v, want 100", est)
	}
}

func TestStalledPropagatorRecovery(t *testing.T) {
	// Writer fills both double buffers while the propagator is stalled,
	// blocks, then resumes when the propagator starts. No updates lost.
	//
	// The blocking point is deterministic, so no wall-clock waits are
	// needed: with b=8 the writer publishes the first full buffer (update
	// #8, instant hint from the initial prop value), fills the second, and
	// must block inside update #16 awaiting a hint that the stalled
	// propagator never posts — progress stops at exactly 15 completed
	// updates.
	fw, comp := newThetaFramework(core.Config{Workers: 1, BufferSize: 8, MaxError: 1}, 12)
	var progress atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			fw.Update(0, theta.HashKey(uint64(i), seed))
			progress.Add(1)
		}
	}()
	// The deadline only bounds how long a REGRESSION takes to fail; the
	// pass path is synchronised purely on the atomic counter and channel.
	deadline := time.After(30 * time.Second)
	for progress.Load() < 15 {
		select {
		case <-deadline:
			t.Fatalf("writer stalled at %d completed updates, expected to reach 15", progress.Load())
		default:
		}
		runtime.Gosched()
	}
	// progress == 15: the writer is inside update #16. done cannot possibly
	// be closed — assert without any timing assumption.
	select {
	case <-done:
		t.Fatal("writer finished despite the stalled propagator")
	default:
	}
	fw.Start() // propagator comes alive; writer unblocks
	select {
	case <-done:
	case <-deadline:
		t.Fatal("writer did not unblock after the propagator started")
	}
	fw.Close()
	if est := comp.Estimate(); est != 1000 {
		t.Errorf("estimate = %v, want 1000", est)
	}
}

func TestParSketchWriterBlocksUntilPropagated(t *testing.T) {
	// In ParSketch the writer must not proceed past a full buffer until the
	// propagator has merged it: after Update #b returns, the global sketch
	// must already contain the batch.
	fw, comp := newThetaFramework(core.Config{
		Workers: 1, BufferSize: 10, MaxError: 1, Mode: core.ModeUnoptimised}, 12)
	fw.Start()
	for i := 0; i < 10; i++ {
		fw.Update(0, theta.HashKey(uint64(i), seed))
	}
	// The 10th update filled the buffer; ParSketch semantics say the writer
	// waited for the merge, so the estimate is already exact.
	if est := comp.Estimate(); est != 10 {
		t.Errorf("ParSketch estimate after full buffer = %v, want 10", est)
	}
	fw.Close()
}

func TestFrameworkQuantiles(t *testing.T) {
	comp := quantiles.NewComposable(128, quantiles.NewRandomBits(1))
	fw := core.New[float64](comp, core.Config{Workers: 2, BufferSize: 64, MaxError: 1})
	fw.Start()
	const n = 1 << 16
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fw.Update(w, float64(i))
			}
		}(w)
	}
	// Concurrent reads must always observe a consistent snapshot.
	stop := make(chan struct{})
	var readerErr atomic.Value
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := comp.Snapshot()
			if s.N() > 0 {
				med := s.Quantile(0.5)
				if med < s.Min() || med > s.Max() {
					readerErr.Store("median outside [min,max]")
					return
				}
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	fw.Close()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	if got := comp.N(); got != n {
		t.Fatalf("snapshot N = %d, want %d", got, n)
	}
	med := comp.Quantile(0.5)
	eps := quantiles.EpsilonBound(128, n)
	if math.Abs(med/float64(n)-0.5) > eps {
		t.Errorf("concurrent median %v, want ≈%v (ε=%v)", med, n/2, eps)
	}
}

func TestFrameworkHLL(t *testing.T) {
	comp := hll.NewComposable(12, seed)
	fw := core.New[uint64](comp, core.Config{Workers: 2, BufferSize: 32, MaxError: 1})
	fw.Start()
	const n = 1 << 18
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/2; i++ {
				fw.Update(w, murmur.HashUint64(base+uint64(i), seed))
			}
		}(w)
	}
	wg.Wait()
	fw.Close()
	re := comp.Estimate()/float64(n) - 1
	if math.Abs(re) > 4*hll.RSEBound(12) {
		t.Errorf("concurrent HLL error %.4f exceeds 4·RSE=%.4f", re, 4*hll.RSEBound(12))
	}
	// The incremental estimate must equal a from-scratch recompute.
	if got, want := comp.Estimate(), comp.Gadget().Estimate(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("incremental estimate %v != recomputed %v", got, want)
	}
}

func TestManyWritersStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const writers = 8
	fw, comp := newThetaFramework(core.Config{Workers: writers, MaxError: 0.04}, 12)
	feed(fw, writers, 1<<20)
	re := comp.Estimate()/float64(1<<20) - 1
	if math.Abs(re) > 5*theta.RSEBound(4096) {
		t.Errorf("stress accuracy %.4f out of tolerance", re)
	}
}

func TestStatsAccounting(t *testing.T) {
	const n = 100000
	fw, _ := newThetaFramework(core.Config{Workers: 1, BufferSize: 8, MaxError: 1}, 8)
	feed(fw, 1, n)
	st := fw.Stats()
	if st.Accepted+st.Filtered != n {
		t.Errorf("accepted %d + filtered %d != fed %d", st.Accepted, st.Filtered, n)
	}
}

func TestModeString(t *testing.T) {
	if core.ModeOptimised.String() != "OptParSketch" || core.ModeUnoptimised.String() != "ParSketch" {
		t.Error("mode names wrong")
	}
	if core.Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode formatting wrong")
	}
}
