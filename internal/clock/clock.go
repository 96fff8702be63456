// Package clock is the one injectable time source of the module: view
// refreshers, window rotators, the checkpointer and the ops sweeper all
// read the current instant and run their periodic job through a Clock, so
// every time-dependent decision can be driven by a Manual clock in tests
// and stress runs. A Manual clock runs due jobs on the goroutine that
// advances it, so a test asserts a tick's effect right after the Advance
// that fired it, with no sleeps and no polling. Production code defaults to
// System.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts the two uses of time: reading the current instant and
// running a periodic job.
type Clock interface {
	Now() time.Time
	// Every runs fn every d until stop is called, with a fixed delay: each
	// run is due d after the previous one returned (the first, d after
	// Every). Runs of one job never overlap. stop is idempotent and waits
	// for an in-flight run; no run starts after stop returns, so stop must
	// not be called from fn itself. Every panics if d ≤ 0.
	Every(d time.Duration, fn func()) (stop func())
}

// System is the production Clock: real time.
type System struct{}

// Now returns the current wall-clock time.
func (System) Now() time.Time { return time.Now() }

// Every runs fn on one goroutine per job, paced by a timer re-armed after
// each run.
func (System) Every(d time.Duration, fn func()) func() {
	if d <= 0 {
		panic("clock: non-positive Every interval")
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTimer(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			select {
			case <-quit: // stop and the tick raced: stop wins
				return
			default:
			}
			fn()
			t.Reset(d)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Manual is a deterministic Clock for tests and stress drivers: time stands
// still until Advance moves it, and Advance itself runs the jobs that come
// due. Every starts no goroutine. Safe for concurrent use.
type Manual struct {
	mu   sync.Mutex
	now  time.Time
	jobs []*manualJob // registration order; stopped jobs removed
}

type manualJob struct {
	every   time.Duration
	fn      func()
	due     time.Time
	running chan struct{} // non-nil while a run is in flight, closed after it
	stopped bool
}

// NewManual returns a Manual clock frozen at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the clock's current instant.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Every registers fn, first due at Now()+d. stop waits for a run in flight
// on an Advancing goroutine.
func (m *Manual) Every(d time.Duration, fn func()) func() {
	if d <= 0 {
		panic("clock: non-positive Every interval")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j := &manualJob{every: d, fn: fn, due: m.now.Add(d)}
	m.jobs = append(m.jobs, j)
	return func() {
		m.mu.Lock()
		if !j.stopped {
			j.stopped = true
			for i, o := range m.jobs {
				if o == j {
					m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
					break
				}
			}
		}
		running := j.running
		m.mu.Unlock()
		if running != nil {
			<-running
		}
	}
}

// Advance moves the clock forward by d, then runs every job that has come
// due once, in registration order, on the calling goroutine and without the
// clock's lock held, re-arming each at the clock's instant when its run
// returns plus its interval. There is no catch-up: a job overdue by several
// intervals runs once. A job stopped before its turn does not run, and one
// already running (on a concurrent Advance) is skipped.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []*manualJob
	for _, j := range m.jobs {
		if !j.due.After(m.now) {
			due = append(due, j)
		}
	}
	m.mu.Unlock()
	for _, j := range due {
		m.mu.Lock()
		if j.stopped || j.running != nil || j.due.After(m.now) {
			m.mu.Unlock()
			continue
		}
		running := make(chan struct{})
		j.running = running
		m.mu.Unlock()
		j.fn()
		m.mu.Lock()
		j.running = nil
		j.due = m.now.Add(j.every)
		m.mu.Unlock()
		close(running)
	}
}
