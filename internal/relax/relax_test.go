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

func TestCheckDistinctExactWindow(t *testing.T) {
	rec := NewRecorder()
	// 5 completed updates, then a query returning 2: with r=2 the lower
	// edge is 3 → violation; with r=3 it passes.
	for i := 0; i < 5; i++ {
		rec.UpdateInvoked(0)
		rec.UpdateReturned(0)
	}
	rec.QueryInvoked(0)
	rec.QueryReturned(0, 2)
	h := rec.History()
	if v := CheckDistinctExact(h, 2); len(v) != 1 {
		t.Fatalf("expected 1 violation with r=2, got %v", v)
	} else if v[0].Error() == "" {
		t.Fatal("violation should format")
	}
	if v := CheckDistinctExact(h, 3); len(v) != 0 {
		t.Fatalf("expected no violation with r=3, got %v", v)
	}
	st := Summarise(h)
	if st.Updates != 5 || st.Queries != 1 || st.MaxDeficit != 3 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestQueryExceedingStartedIsViolation(t *testing.T) {
	rec := NewRecorder()
	rec.UpdateInvoked(0)
	rec.UpdateReturned(0)
	rec.QueryInvoked(0)
	rec.QueryReturned(0, 5) // only 1 update ever started
	if v := CheckDistinctExact(rec.History(), 100); len(v) != 1 {
		t.Fatal("query above started-count must violate regardless of r")
	}
}

// TestRealExecutionHistories instruments actual concurrent Θ sketch runs
// and verifies every recorded query against the relaxation window — the
// empirical Theorem 1 check on live schedules.
func TestRealExecutionHistories(t *testing.T) {
	const writers, b, n = 3, 4, 3000 // r = 24; n < 2k so the sketch is exact
	comp := theta.NewComposable(12, 9001)
	fw := core.New[uint64](comp, core.Config{Workers: writers, BufferSize: b, MaxError: 1})
	rec := NewRecorder()
	fw.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var queries sync.WaitGroup
	queries.Add(1)
	go func() {
		defer queries.Done()
		for q := 0; q < 20000; q++ { // bounded so the history stays small
			select {
			case <-stop:
				return
			default:
			}
			rec.QueryInvoked(0)
			rec.QueryReturned(0, comp.Estimate())
			runtime.Gosched() // let writers run on small machines
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/writers; i++ {
				rec.UpdateInvoked(w)
				fw.Update(w, theta.HashKey(base+uint64(i), 9001))
				rec.UpdateReturned(w)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	queries.Wait()
	fw.Close()

	h := rec.History()
	r := fw.Relaxation()
	if viol := CheckDistinctExact(h, r); len(viol) > 0 {
		t.Fatalf("%d queries violated the r=%d window (first: %v)", len(viol), r, viol[0])
	}
	st := Summarise(h)
	if st.Queries == 0 {
		t.Fatal("no queries recorded")
	}
	t.Logf("history: %d updates, %d queries, max deficit %.0f (r=%d)",
		st.Updates, st.Queries, st.MaxDeficit, r)
}
