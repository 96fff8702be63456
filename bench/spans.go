package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// A span is one call the harness made into a layer: which call, when it
// started and ended (ns since the run's epoch), the span that caused it and
// the operation both belong to. Spans are recorded by the harness around
// its own calls; spans inside the program are a later change.
type span struct {
	name       uint16
	start, end int64
	parent     int32 // index in the same buffer, -1 for a root
	op         int32
}

// spanBuf is one goroutine's span log. The nil buffer is the untraced run:
// every method is a no-op, so workloads call them unconditionally.
type spanBuf struct{ spans []span }

// tracer owns the buffers of a traced run and the span-name table.
type tracer struct {
	mu    sync.Mutex
	names []string
	index map[string]uint16
	bufs  []*spanBuf
	// counters holds the layers' public counters read at pass boundaries.
	counters []map[string]float64
}

func newTracer() *tracer { return &tracer{index: map[string]uint16{}} }

// buffer returns a fresh span log for one goroutine; nil when t is nil.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{spans: make([]span, 0, 1<<10)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// id interns a span name.
func (t *tracer) id(name string) uint16 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// readCounters stores one pass-boundary reading of the layers' counters.
func (t *tracer) readCounters(c map[string]float64) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.counters = append(t.counters, c)
	t.mu.Unlock()
}

// open starts a span whose children are recorded before it ends.
func (b *spanBuf) open(name uint16, parent, op int32, start int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: start, parent: parent, op: op})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32, end int64) {
	if b != nil {
		b.spans[i].end = end
	}
}

// add records a finished leaf span.
func (b *spanBuf) add(name uint16, parent, op int32, start, end int64) {
	if b != nil {
		b.spans = append(b.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	}
}

// layerTime is the time spent under one span name: total is the sum of span
// durations, self is total minus the part its child spans cover.
type layerTime struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// selfTimes aggregates every buffer by span name.
func (t *tracer) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			lt := out[t.names[s.name]]
			lt.Count++
			lt.TotalUS += float64(s.end-s.start) / 1e3
			lt.SelfUS += float64(s.end-s.start-child[i]) / 1e3
			out[t.names[s.name]] = lt
		}
	}
	return out
}

// write stores the trace as JSON: the name table, per-layer self time, the
// pass-boundary counters and every span as [name, start_ns, end_ns, parent,
// op], parents re-indexed into the concatenated list.
func (t *tracer) write(path, workload string, seed uint64) error {
	type file struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Names    []string             `json:"names"`
		Layers   map[string]layerTime `json:"layers"`
		Counters []map[string]float64 `json:"counters"`
		Spans    [][5]int64           `json:"spans"`
	}
	f := file{Workload: workload, Seed: seed, Names: t.names, Layers: t.selfTimes(), Counters: t.counters}
	for _, b := range t.bufs {
		base := int64(len(f.Spans))
		for _, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = base + int64(s.parent)
			}
			f.Spans = append(f.Spans, [5]int64{int64(s.name), s.start, s.end, parent, int64(s.op)})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedLayers returns the layer names by descending self time.
func sortedLayers(m map[string]layerTime) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return m[names[i]].SelfUS > m[names[j]].SelfUS })
	return names
}
