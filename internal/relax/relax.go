// Package relax implements the r-relaxation formalism of Section 4 of
// "Fast Concurrent Data Sketches" (Definition 2) as executable checks: an
// oracle that holds every answer of a live concurrent execution to the
// relaxation window, and a checker that decides whether one explicit
// sequential history is an r-relaxation of another (Figure 2).
//
// Definition 2 (r-relaxation): a sequential history H is an r-relaxation of
// H′ if H consists of all but at most r of the invocations of H′, and each
// invocation in H is preceded by all but at most r of the invocations that
// precede it in H′.
//
// For an order-agnostic, duplicate-free counting sketch (a distinct counter
// in exact mode, or a stream total) this admits a counting characterisation
// that can be checked mechanically (and that the adversary analysis of
// Section 6 builds on): a query that returns v is justified iff it reflects
// some sub-multiset of the updates invoked before its response containing
// all but ≤ r of the updates that completed before its invocation, i.e.
//
//	completedBefore(q.invoke) − r  ≤  v  ≤  startedBefore(q.response).
//
// The two counts are all the window needs, so the Oracle keeps exactly two
// atomic counters: a query is an interval like an update, stamped before the
// read and again after it, so updates that complete while the querier is
// preempted between the two are not charged to it. Checking every answer of
// a real run is the empirical counterpart of the paper's Theorem 1 (the
// exhaustive-schedule counterpart lives in internal/core's model tests).
package relax

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Oracle checks live answers against the r-relaxation window. Writers
// bracket each update with Started and Completed; a querier brackets each
// read as
//
//	c1 := o.Invoke()
//	v := read()
//	o.Respond(c1, v, r)
//
// with r the staleness bound in force for that answer. All methods are safe
// for concurrent use and lock-free; use NewOracle to build one.
type Oracle struct {
	started, completed    atomic.Int64
	queries, lower, upper atomic.Int64
	maxStale              atomic.Int64
	first                 atomic.Pointer[Violation]
}

// NewOracle returns an oracle with no updates and no queries recorded.
func NewOracle() *Oracle {
	o := &Oracle{}
	o.maxStale.Store(math.MinInt64)
	return o
}

// Started records the invocation of an update; call it before the update.
func (o *Oracle) Started() { o.started.Add(1) }

// Completed records the response of an update; call it after the update.
func (o *Oracle) Completed() { o.completed.Add(1) }

// StartedCount returns the number of updates invoked so far.
func (o *Oracle) StartedCount() int64 { return o.started.Load() }

// Invoke stamps a query's invocation: it returns completedBefore(invoke),
// the c1 to pass to Respond. Call it before reading the sketch.
func (o *Oracle) Invoke() int64 { return o.completed.Load() }

// Respond stamps the response of the query invoked at c1 that answered v,
// and checks c1 − r ≤ v ≤ startedBefore(response). Call it after reading
// the sketch. r is the bound in force: 0 in an eager phase, S·r in steady
// state, the transitional sum while a resize or rotation drains, and for
// planes that lag on purpose the bound plus the lag — a view's c1 minus
// its published floor, a window's expelled weight. It returns whether the
// answer was inside the window.
func (o *Oracle) Respond(c1, v, r int64) bool {
	started := o.started.Load()
	for stale := c1 - v; ; {
		cur := o.maxStale.Load()
		if stale <= cur || o.maxStale.CompareAndSwap(cur, stale) {
			break
		}
	}
	o.queries.Add(1)
	low, high := v < c1-r, v > started
	if low {
		o.lower.Add(1)
	}
	if high {
		o.upper.Add(1)
	}
	if low || high {
		o.first.CompareAndSwap(nil, &Violation{Value: v, CompletedBefore: c1, StartedBefore: started, R: r})
	}
	return !low && !high
}

// Tally is a snapshot of an oracle's verdicts.
type Tally struct {
	// Queries counts answers checked; Lower counts answers that missed more
	// than r completed updates, Upper answers above the started count
	// (invented updates).
	Queries, Lower, Upper int64
	// MaxStaleness is the largest c1 − v observed: how many completed
	// updates the most stale answer missed. Negative when every answer
	// also saw updates that completed during its read; 0 with no queries.
	MaxStaleness int64
}

// Tally returns the verdicts so far.
func (o *Oracle) Tally() Tally {
	t := Tally{Queries: o.queries.Load(), Lower: o.lower.Load(), Upper: o.upper.Load()}
	if t.Queries > 0 {
		t.MaxStaleness = o.maxStale.Load()
	}
	return t
}

// Err returns the first violation recorded, or nil if every answer held.
func (o *Oracle) Err() error {
	if v := o.first.Load(); v != nil {
		return v
	}
	return nil
}

// Violation describes an answer outside its r-relaxation window.
type Violation struct {
	Value, CompletedBefore, StartedBefore, R int64
}

func (v *Violation) Error() string {
	return fmt.Sprintf("relax: query returned %d outside [completedBefore(invoke)−r, startedBefore(response)] = [%d−%d, %d]",
		v.Value, v.CompletedBefore, v.R, v.StartedBefore)
}

// --- Definition 2 on explicit histories ---

// SeqHistory is a sequential history of an order-agnostic distinct-counting
// object: a list of operations, each either an update with a unique key or
// a query with its answer. It is the H / H′ of Definition 2 and Figure 2.
type SeqHistory struct {
	Ops []SeqOp
}

// SeqOp is one operation of a sequential history.
type SeqOp struct {
	IsQuery bool
	Key     uint64  // for updates
	Answer  float64 // for queries
}

// Update appends an update operation.
func (h *SeqHistory) Update(key uint64) { h.Ops = append(h.Ops, SeqOp{Key: key}) }

// Query appends a query operation with its answer.
func (h *SeqHistory) Query(ans float64) {
	h.Ops = append(h.Ops, SeqOp{IsQuery: true, Answer: ans})
}

// InSeqSpec reports whether h is a legal sequential history of the exact
// distinct counter: every query answers the number of distinct keys updated
// before it.
func (h *SeqHistory) InSeqSpec() bool {
	seen := map[uint64]bool{}
	for _, op := range h.Ops {
		if op.IsQuery {
			if op.Answer != float64(len(seen)) {
				return false
			}
		} else {
			seen[op.Key] = true
		}
	}
	return true
}

// IsRRelaxationOf reports whether target ∈ SeqSketch is an r-relaxation of
// h per Definition 2, for the special case used in the paper's Figure 2:
// target must consist of all but at most r of h's invocations, and each
// invocation in target must be preceded by all but at most r of the
// invocations that precede it in h.
//
// The check matches operations by identity (updates by key; queries by
// position among queries), then verifies the two cardinality conditions.
func (h *SeqHistory) IsRRelaxationOf(target *SeqHistory, r int) bool {
	// Index h's update keys by position and h's queries by order.
	posInH := map[uint64]int{}
	var queryPosH []int
	for i, op := range h.Ops {
		if op.IsQuery {
			queryPosH = append(queryPosH, i)
		} else {
			posInH[op.Key] = i
		}
	}
	// Condition 1: target has all but ≤ r of h's invocations (and nothing
	// h doesn't have).
	missing := len(posInH)
	var queryPosT []int
	seenT := map[uint64]bool{}
	for i, op := range target.Ops {
		if op.IsQuery {
			queryPosT = append(queryPosT, i)
			continue
		}
		if _, ok := posInH[op.Key]; !ok {
			return false // invented invocation
		}
		if seenT[op.Key] {
			return false // duplicated invocation
		}
		seenT[op.Key] = true
		missing--
	}
	if len(queryPosT) != len(queryPosH) {
		return false // queries cannot be dropped by the relaxation we use
	}
	if missing > r {
		return false
	}
	// Condition 2: for every invocation o in target, all but ≤ r of the
	// invocations preceding o in h also precede it in target.
	precedesInT := func(key uint64, idx int) bool {
		for j := 0; j < idx; j++ {
			op := target.Ops[j]
			if !op.IsQuery && op.Key == key {
				return true
			}
		}
		return false
	}
	checkAt := func(hPos, tPos int) bool {
		skipped := 0
		for j := 0; j < hPos; j++ {
			op := h.Ops[j]
			if op.IsQuery {
				continue
			}
			if !seenT[op.Key] || !precedesInT(op.Key, tPos) {
				skipped++
			}
		}
		return skipped <= r
	}
	for i, op := range target.Ops {
		var hPos int
		if op.IsQuery {
			// The i-th query of target corresponds to the i-th of h.
			qi := 0
			for _, p := range queryPosT {
				if p == i {
					break
				}
				qi++
			}
			hPos = queryPosH[qi]
		} else {
			hPos = posInH[op.Key]
		}
		if !checkAt(hPos, i) {
			return false
		}
	}
	return true
}
