// Package relax implements the r-relaxation formalism of Section 4 of
// "Fast Concurrent Data Sketches" (Definition 2) as executable checks:
// recording invoke/response histories from concurrent sketch executions and
// verifying that a recorded history is an r-relaxation of the sequential
// specification.
//
// Definition 2 (r-relaxation): a sequential history H is an r-relaxation of
// H′ if H consists of all but at most r of the invocations of H′, and each
// invocation in H is preceded by all but at most r of the invocations that
// precede it in H′.
//
// For an order-agnostic, duplicate-free distinct-counting sketch in exact
// mode this admits a counting characterisation that can be checked
// mechanically (and that the adversary analysis of Section 6 builds on): a
// query that returns v is justified iff it reflects some sub-multiset of
// the updates invoked before its response containing all but ≤ r of the
// updates that completed before its invocation, i.e.
//
//	completedBefore(q.invoke) − r  ≤  v  ≤  startedBefore(q.response).
//
// The package records real histories with monotonic per-event timestamps —
// a query is an interval like an update: stamped before the read and again
// after it, so updates that complete while the querier is preempted between
// the two are not charged to it — and checks this window for every query,
// providing the empirical counterpart of the paper's Theorem 1 on actual
// executions (the exhaustive-schedule counterpart lives in internal/core's
// model tests).
package relax

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// EventKind distinguishes history events.
type EventKind uint8

const (
	// UpdateInvoke marks the start of an update operation.
	UpdateInvoke EventKind = iota
	// UpdateResponse marks its completion.
	UpdateResponse
	// QueryInvoke marks the start of a query, stamped before the sketch is
	// read.
	QueryInvoke
	// QueryResponse marks its completion and carries the value it returned.
	QueryResponse
)

// Event is one history entry.
type Event struct {
	Kind EventKind
	// Seq is the global sequence number assigned by the recorder; it
	// totally orders events (the recorder's linearisation of the
	// instrumentation points).
	Seq uint64
	// Writer identifies the lane for update events and the querier for
	// query events; each issues one operation at a time.
	Writer int
	// Value is the query result for QueryResponse events.
	Value float64
}

// Recorder collects a history from a concurrent execution. Instrumentation
// is a single atomic counter increment per event, so it perturbs the
// schedule minimally.
type Recorder struct {
	clock atomic.Uint64
	mu    sync.Mutex
	evs   []Event
}

// NewRecorder returns an empty history recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// record appends an event with a fresh sequence number.
func (r *Recorder) record(e Event) uint64 {
	seq := r.clock.Add(1)
	e.Seq = seq
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
	return seq
}

// UpdateInvoked records the invocation of an update on a writer lane.
func (r *Recorder) UpdateInvoked(writer int) {
	r.record(Event{Kind: UpdateInvoke, Writer: writer})
}

// UpdateReturned records the completion of the writer's oldest outstanding
// update.
func (r *Recorder) UpdateReturned(writer int) {
	r.record(Event{Kind: UpdateResponse, Writer: writer})
}

// QueryInvoked records the invocation of a query; call it before reading
// the sketch.
func (r *Recorder) QueryInvoked(querier int) {
	r.record(Event{Kind: QueryInvoke, Writer: querier})
}

// QueryReturned records the completion of the querier's outstanding query
// and the value it returned.
func (r *Recorder) QueryReturned(querier int, value float64) {
	r.record(Event{Kind: QueryResponse, Writer: querier, Value: value})
}

// History returns the recorded events in sequence order.
func (r *Recorder) History() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Event(nil), r.evs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Violation describes a query that no r-relaxed prefix justifies.
type Violation struct {
	QuerySeq        uint64
	Value           float64
	CompletedBefore int
	StartedBefore   int
	R               int
}

func (v Violation) Error() string {
	return fmt.Sprintf("relax: query@%d returned %v outside [completedBefore(invoke)−r, startedBefore(response)] = [%d−%d, %d]",
		v.QuerySeq, v.Value, v.CompletedBefore, v.R, v.StartedBefore)
}

// eachQuery walks a history in sequence order and calls fn for every
// completed query with the two counts its window is made of: the updates
// completed before its invocation and the updates started before its
// response. It returns the number of updates invoked.
func eachQuery(history []Event, fn func(q Event, completedBefore, startedBefore int)) (started int) {
	completed := 0
	atInvoke := map[int]int{} // querier → completedBefore(its open query's invoke)
	for _, e := range history {
		switch e.Kind {
		case UpdateInvoke:
			started++
		case UpdateResponse:
			completed++
		case QueryInvoke:
			atInvoke[e.Writer] = completed
		case QueryResponse:
			fn(e, atInvoke[e.Writer], started)
		}
	}
	return started
}

// CheckDistinctExact verifies a recorded history of a distinct-counting
// sketch in exact mode (all updates unique, estimate = retained count)
// against the r-relaxation window. It returns every violating query.
func CheckDistinctExact(history []Event, r int) []Violation {
	var violations []Violation
	eachQuery(history, func(q Event, completed, started int) {
		if q.Value < float64(completed-r) || q.Value > float64(started) {
			violations = append(violations, Violation{
				QuerySeq:        q.Seq,
				Value:           q.Value,
				CompletedBefore: completed,
				StartedBefore:   started,
				R:               r,
			})
		}
	})
	return violations
}

// Stats summarises a history.
type Stats struct {
	Updates int
	Queries int
	// MaxDeficit is the largest (completedBefore(invoke) − value) over all
	// queries: how close the execution came to the relaxation bound.
	MaxDeficit float64
}

// Summarise computes history statistics.
func Summarise(history []Event) Stats {
	var st Stats
	st.Updates = eachQuery(history, func(q Event, completed, _ int) {
		st.Queries++
		if d := float64(completed) - q.Value; d > st.MaxDeficit {
			st.MaxDeficit = d
		}
	})
	return st
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
