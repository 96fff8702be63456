// Package clock is the one injectable time source of the module: view
// refreshers, window rotators, the checkpointer and the ops sweeper all
// read the current instant and wait for their next tick through a Clock, so
// every time-dependent decision can be driven by a Manual clock in tests
// and stress runs, with no sleeps and no wall-clock flakiness. Production
// code defaults to System.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts the two uses of time: reading the current instant and
// waiting for the next tick.
type Clock interface {
	Now() time.Time
	// After behaves like time.After: a channel that delivers one value once
	// d has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// System is the production Clock: real time.
type System struct{}

// Now returns the current wall-clock time.
func (System) Now() time.Time { return time.Now() }

// After defers to time.After.
func (System) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Manual is a deterministic Clock for tests and stress drivers: time stands
// still until Advance moves it, firing any timers that come due. Safe for
// concurrent use.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
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

// After registers a one-shot timer due at Now()+d. Non-positive durations
// fire immediately.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.timers = append(m.timers, manualTimer{at: m.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every timer that has come
// due, in registration order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	kept := m.timers[:0]
	for _, t := range m.timers {
		if !t.at.After(m.now) {
			t.ch <- m.now
		} else {
			kept = append(kept, t)
		}
	}
	m.timers = kept
}

// Waiters returns the number of armed timers — how many goroutines are
// blocked in After. Tests synchronise on this before Advancing, so a tick
// can never be lost between a wakeup and its re-arm.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}
