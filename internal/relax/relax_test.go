package relax

import (
	"runtime"
	"sync"
	"testing"

	"fastsketches/internal/core"
	"fastsketches/internal/theta"
)

// TestFigure2Example reproduces the paper's Figure 2: H is a 1-relaxation
// of H′. H′ = upd(1), q(=0 misses upd(1)), upd(2), q'(=2 sees both…) — we
// build the paper's structure: a query overtaken by one update.
func TestFigure2Example(t *testing.T) {
	// H′: the actual (out-of-order) history — the query answered 0 even
	// though upd(1) precedes it.
	hPrime := &SeqHistory{}
	hPrime.Update(1)
	hPrime.Query(0) // missed upd(1)
	hPrime.Update(2)
	hPrime.Query(2) // sees both

	if hPrime.InSeqSpec() {
		t.Fatal("H′ should not be in the sequential specification")
	}

	// H: a legal sequential history where the first query is moved before
	// upd(1) — i.e. upd(1) "overtakes" the query.
	h := &SeqHistory{}
	h.Query(0)
	h.Update(1)
	h.Update(2)
	h.Query(2)
	if !h.InSeqSpec() {
		t.Fatal("H should be in the sequential specification")
	}

	// H is a 1-relaxation of H′…
	if !hPrime.IsRRelaxationOf(h, 1) {
		t.Error("H should be a 1-relaxation of H′ (Figure 2)")
	}
	// …but not a 0-relaxation (the reordering is essential).
	if hPrime.IsRRelaxationOf(h, 0) {
		t.Error("H must not be a 0-relaxation of H′")
	}
}

func TestRelaxationRejectsInventedOps(t *testing.T) {
	h := &SeqHistory{}
	h.Update(1)
	target := &SeqHistory{}
	target.Update(1)
	target.Update(99) // never invoked in h
	if h.IsRRelaxationOf(target, 10) {
		t.Error("relaxation must not invent invocations")
	}
}

func TestRelaxationDropBound(t *testing.T) {
	h := &SeqHistory{}
	for i := uint64(1); i <= 5; i++ {
		h.Update(i)
	}
	h.Query(2)

	// Dropping 3 of 5 updates needs r ≥ 3.
	target := &SeqHistory{}
	target.Update(1)
	target.Update(2)
	target.Query(2)
	if h.IsRRelaxationOf(target, 2) {
		t.Error("dropping 3 updates must fail with r=2")
	}
	if !h.IsRRelaxationOf(target, 3) {
		t.Error("dropping 3 updates must pass with r=3")
	}
}

func TestRelaxationReorderBound(t *testing.T) {
	// h: upd(1..4), query. target keeps all ops but moves the query before
	// the last two updates: 2 predecessors skipped → needs r ≥ 2.
	h := &SeqHistory{}
	for i := uint64(1); i <= 4; i++ {
		h.Update(i)
	}
	h.Query(2)

	target := &SeqHistory{}
	target.Update(1)
	target.Update(2)
	target.Query(2)
	target.Update(3)
	target.Update(4)
	if !target.InSeqSpec() {
		t.Fatal("target should be sequentially legal")
	}
	if h.IsRRelaxationOf(target, 1) {
		t.Error("query overtaken by 2 updates must fail with r=1")
	}
	if !h.IsRRelaxationOf(target, 2) {
		t.Error("query overtaken by 2 updates must pass with r=2")
	}
}

// advance records completed updates and a further inFlight that started
// but have not completed.
func advance(o *Oracle, completed, inFlight int) {
	for i := 0; i < completed; i++ {
		o.Started()
		o.Completed()
	}
	for i := 0; i < inFlight; i++ {
		o.Started()
	}
}

func TestCheckDistinctExactWindow(t *testing.T) {
	// 5 completed updates, then a query returning 2: with r=2 the lower
	// edge is 3 → violation; with r=3 it passes. Either way the answer
	// missed 3 completed updates.
	o := NewOracle()
	advance(o, 5, 0)
	if o.Respond(o.Invoke(), 2, 2) {
		t.Fatal("expected a violation with r=2")
	}
	if err := o.Err(); err == nil || err.Error() == "" {
		t.Fatalf("violation should be kept and format, got %v", err)
	}
	if !o.Respond(o.Invoke(), 2, 3) {
		t.Fatal("expected no violation with r=3")
	}
	if tl := o.Tally(); tl != (Tally{Queries: 2, Lower: 1, MaxStaleness: 3}) {
		t.Fatalf("bad tally %+v", tl)
	}
}

func TestQueryExceedingStartedIsViolation(t *testing.T) {
	o := NewOracle()
	advance(o, 1, 0)
	c1 := o.Invoke()
	if o.Respond(c1, 5, 100) { // only 1 update ever started
		t.Fatal("query above started-count must violate regardless of r")
	}
	if tl := o.Tally(); tl.Upper != 1 || tl.Lower != 0 || tl.MaxStaleness != -4 {
		t.Fatalf("bad tally %+v", tl)
	}
}

// TestOracleEdges holds the window to each bound a caller passes: an
// answer exactly on either edge passes, one past either edge fails. The run
// has 1000 completed updates and 10 more in flight, so the upper edge is
// 1010 throughout; the shard relaxation is r = 24 at S = 4.
func TestOracleEdges(t *testing.T) {
	const c1, started, r = 1000, 1010, 24
	for _, tc := range []struct {
		name  string
		bound int64
	}{
		{"eager", 0},
		{"steady S·r", 4 * r},
		{"transitional (S_old+S_new)·r", (4 + 8) * r},
		{"view: S·r plus c1 − published floor", 4*r + (c1 - 600)},
		{"window: S·r plus expelled weight", 4*r + 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range []struct {
				v      int64
				ok     bool
				lo, hi int64
			}{
				{c1 - tc.bound, true, 0, 0},
				{started, true, 0, 0},
				{c1 - tc.bound - 1, false, 1, 0},
				{started + 1, false, 0, 1},
			} {
				o := NewOracle()
				advance(o, c1, started-c1)
				if got := o.Respond(o.Invoke(), e.v, tc.bound); got != e.ok {
					t.Errorf("answer %d with r=%d: ok=%v, want %v", e.v, tc.bound, got, e.ok)
				}
				if tl := o.Tally(); tl.Lower != e.lo || tl.Upper != e.hi || tl.MaxStaleness != c1-e.v {
					t.Errorf("answer %d with r=%d: tally %+v", e.v, tc.bound, tl)
				}
			}
		})
	}
}

// TestRealExecutionHistories checks every answer of actual concurrent Θ
// sketch runs against the relaxation window — the empirical Theorem 1
// check on live schedules.
func TestRealExecutionHistories(t *testing.T) {
	const writers, b, n = 3, 4, 3000 // r = 24; n < 2k so the sketch is exact
	comp := theta.NewComposable(12, 9001)
	fw := core.New[uint64](comp, core.Config{Workers: writers, BufferSize: b, MaxError: 1})
	o := NewOracle()
	r := int64(fw.Relaxation())
	fw.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var queries sync.WaitGroup
	queries.Add(1)
	go func() {
		defer queries.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c1 := o.Invoke()
			o.Respond(c1, int64(comp.Estimate()), r)
			runtime.Gosched() // let writers run on small machines
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/writers; i++ {
				o.Started()
				fw.Update(w, theta.HashKey(base+uint64(i), 9001))
				o.Completed()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	queries.Wait()
	fw.Close()

	tl := o.Tally()
	if tl.Lower+tl.Upper > 0 {
		t.Fatalf("%d queries violated the r=%d window (first: %v)", tl.Lower+tl.Upper, r, o.Err())
	}
	if tl.Queries == 0 {
		t.Fatal("no queries checked")
	}
	t.Logf("%d updates, %d queries, max staleness %d (r=%d)", o.StartedCount(), tl.Queries, tl.MaxStaleness, r)
}
