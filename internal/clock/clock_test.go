package clock_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsketches/internal/clock"
)

var epoch = time.Unix(1<<20, 0)

// TestManualEveryFixedDelay: a job first runs d after Every, then d after
// its previous run returned; an Advance past several intervals runs it
// once, with no catch-up.
func TestManualEveryFixedDelay(t *testing.T) {
	m := clock.NewManual(epoch)
	var runs []time.Duration
	stop := m.Every(10*time.Second, func() {
		runs = append(runs, m.Now().Sub(epoch))
		if len(runs) == 1 {
			m.Advance(5 * time.Second) // the first run takes 5s of clock time
		}
	})
	defer stop()
	step := func(d time.Duration, want ...time.Duration) {
		t.Helper()
		m.Advance(d)
		if !slices.Equal(runs, want) {
			t.Fatalf("at +%v: runs at %v, want %v", m.Now().Sub(epoch), runs, want)
		}
	}
	step(10*time.Second-1, []time.Duration{}...)
	step(1, 10*time.Second)
	// The first run returned at +15s, so the next is due at +25s.
	step(10*time.Second-1, 10*time.Second)
	step(1, 10*time.Second, 25*time.Second)
	// Overdue by five intervals: one run, re-armed from its return.
	step(50*time.Second, 10*time.Second, 25*time.Second, 75*time.Second)
	step(10*time.Second-1, 10*time.Second, 25*time.Second, 75*time.Second)
	step(1, 10*time.Second, 25*time.Second, 75*time.Second, 85*time.Second)
}

// TestManualEveryRunsInRegistrationOrder: jobs due in one Advance run on
// the caller's goroutine, in the order they were scheduled.
func TestManualEveryRunsInRegistrationOrder(t *testing.T) {
	m := clock.NewManual(epoch)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		defer m.Every(time.Second, func() { order = append(order, name) })()
	}
	defer m.Every(time.Hour, func() { order = append(order, "late") })()
	m.Advance(time.Minute)
	if want := []string{"a", "b", "c"}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestManualEveryNoOverlap: concurrent Advances never run one job twice at
// once.
func TestManualEveryNoOverlap(t *testing.T) {
	m := clock.NewManual(epoch)
	var inFlight, overlaps, runs atomic.Int64
	stop := m.Every(time.Second, func() {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		runs.Add(1)
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
	})
	defer stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Advance(time.Second)
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping runs", n)
	}
	if runs.Load() == 0 {
		t.Fatal("the job never ran")
	}
}

// TestManualStopWaitsForRun: stop blocks while the job runs on an Advancing
// goroutine, returns once it does, and is idempotent; nothing runs after.
func TestManualStopWaitsForRun(t *testing.T) {
	m := clock.NewManual(epoch)
	started, release := make(chan struct{}), make(chan struct{})
	var runs atomic.Int64
	stop := m.Every(time.Second, func() {
		if runs.Add(1) == 1 {
			close(started)
			<-release
		}
	})
	advanced := make(chan struct{})
	go func() {
		m.Advance(time.Second)
		close(advanced)
	}()
	<-started
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while the job was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the run finished")
	}
	<-advanced
	stop() // idempotent
	m.Advance(time.Hour)
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d runs, want 1: a run started after stop returned", n)
	}
}

// TestManualStopDuringAdvance: a job stopped by an earlier job of the same
// Advance does not run.
func TestManualStopDuringAdvance(t *testing.T) {
	m := clock.NewManual(epoch)
	var stopB func()
	ranB := false
	defer m.Every(time.Second, func() { stopB() })()
	stopB = m.Every(time.Second, func() { ranB = true })
	m.Advance(time.Second)
	if ranB {
		t.Fatal("a job stopped earlier in the same Advance ran")
	}
}

// TestEveryRejectsNonPositive: both clocks panic on d ≤ 0 before
// scheduling anything.
func TestEveryRejectsNonPositive(t *testing.T) {
	for _, c := range []clock.Clock{clock.System{}, clock.NewManual(epoch)} {
		for _, d := range []time.Duration{0, -time.Second} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T.Every(%v) did not panic", c, d)
					}
				}()
				c.Every(d, func() {})
			}()
		}
	}
}

// TestSystemEverySmoke: the system clock runs a short-interval job
// repeatedly and never after stop returns; stop is idempotent.
func TestSystemEverySmoke(t *testing.T) {
	var runs, inFlight, overlaps atomic.Int64
	stop := clock.System{}.Every(time.Millisecond, func() {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		runs.Add(1)
		inFlight.Add(-1)
	})
	for deadline := time.Now().Add(5 * time.Second); runs.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs in 5s at a 1ms interval", runs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	n := runs.Load()
	time.Sleep(10 * time.Millisecond)
	stop() // idempotent
	if got := runs.Load(); got != n {
		t.Fatalf("runs went %d → %d after stop returned", n, got)
	}
	if overlaps.Load() != 0 {
		t.Fatal("overlapping runs")
	}
}
