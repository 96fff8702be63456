package ops_test

// Exposition tests: every line of a scrape parses as Prometheus text format
// 0.0.4, samples stay grouped under one header per metric, histograms are
// cumulative, label values escape, the counter series survive a live Resize
// monotonically, and the HTTP endpoint serves the whole thing.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
	"fastsketches/internal/ops"
)

// exposition is a parsed scrape: declared types plus samples in order.
type exposition struct {
	types   map[string]string // metric → counter|gauge|histogram
	samples []sample
}

type sample struct {
	metric string // full sample name, e.g. foo_bucket
	labels string // raw {...} content, "" if none
	value  float64
}

// base maps a sample name to the metric its # TYPE header declares.
func (e *exposition) base(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if t, ok := e.types[strings.TrimSuffix(name, suf)]; ok && t == "histogram" {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func (e *exposition) get(metric, labels string) (float64, bool) {
	for _, s := range e.samples {
		if s.metric == metric && s.labels == labels {
			return s.value, true
		}
	}
	return 0, false
}

// parseExposition validates the text format line by line: headers are
// well-formed, every sample's value parses, every sample belongs to a
// declared metric, and all samples of one metric are contiguous.
func parseExposition(t *testing.T, text string) *exposition {
	t.Helper()
	e := &exposition{types: map[string]string{}}
	seenDone := map[string]bool{} // metric → its sample block has ended
	last := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.SplitN(line[len("# HELP "):], " ", 2)) != 2 {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line[len("# TYPE "):])
			if len(f) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, f[1])
			}
			if _, dup := e.types[f[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, f[0])
			}
			e.types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		// Sample: name[{labels}] value
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			rest = line[i+1 : j]
			line = line[:i] + line[j+1:]
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("line %d: want 'name value': %q", ln+1, line)
		}
		name := f[0]
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, f[1], err)
		}
		b := e.base(name)
		if _, ok := e.types[b]; !ok {
			t.Fatalf("line %d: sample %s has no preceding # TYPE", ln+1, name)
		}
		if b != last {
			if seenDone[b] {
				t.Fatalf("line %d: samples of %s not contiguous", ln+1, b)
			}
			if last != "" {
				seenDone[last] = true
			}
			last = b
		}
		e.samples = append(e.samples, sample{name, rest, v})
	}
	return e
}

// checkHistogram verifies cumulative buckets with increasing le bounds,
// ending at +Inf == _count.
func checkHistogram(t *testing.T, e *exposition, metric string) {
	t.Helper()
	var prev float64
	prevLe := -1.0
	sawInf := false
	for _, s := range e.samples {
		if s.metric != metric+"_bucket" {
			continue
		}
		le := s.labels[len(`le="`) : len(s.labels)-1]
		if s.value < prev {
			t.Errorf("%s: bucket le=%s count %v < previous %v (not cumulative)", metric, le, s.value, prev)
		}
		prev = s.value
		if le == "+Inf" {
			sawInf = true
			continue
		}
		lv, err := strconv.ParseFloat(le, 64)
		if err != nil || lv <= prevLe {
			t.Errorf("%s: le bounds not increasing numeric: %q after %v (err %v)", metric, le, prevLe, err)
		}
		prevLe = lv
	}
	if !sawInf {
		t.Fatalf("%s: no +Inf bucket", metric)
	}
	cnt, ok := e.get(metric+"_count", "")
	if !ok {
		t.Fatalf("%s: no _count", metric)
	}
	if cnt != prev {
		t.Errorf("%s: _count %v != +Inf bucket %v", metric, cnt, prev)
	}
}

// TestMetricsExposition scrapes a registry with live sketches, a view, a
// Manager, and ingest histograms, and validates the whole exposition.
func TestMetricsExposition(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1, BufferSize: 1})
	mc := clock.NewManual(time.Unix(0, 0))
	m, err := ops.NewManager(reg, ops.Config{IdleTTL: time.Hour, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}

	th, err := reg.OpenTheta("metrics/theta", fastsketches.Spec{
		View: &fastsketches.ViewConfig{RefreshEvery: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A label value exercising every escape the format defines.
	weird, err := reg.OpenCountMin("we\"ird\\name\nnl", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	for i := uint64(0); i < 500; i++ {
		th.Update(0, i)
		weird.Update(0, i%32)
	}
	m.Sweep()

	obs := &ops.IngestObserver{}
	for _, c := range []struct{ n, ns int64 }{{1, 50}, {3, 900}, {256, 120000}, {4096, 9_000_000}} {
		obs.ObserveChunk(c.n, c.ns)
	}

	c := &ops.Collector{Reg: reg, Manager: m, Ingest: obs}
	out := c.String()
	e := parseExposition(t, out)

	thetaLabels := `family="theta",name="metrics/theta"`
	weirdLabels := `family="countmin",name="we\"ird\\name\nnl"`
	for _, metric := range []string{
		"fastsketches_sketch_shards",
		"fastsketches_sketch_relaxation",
		"fastsketches_sketch_shard_relaxation",
		"fastsketches_sketch_eager",
		"fastsketches_sketch_ingested_total",
		"fastsketches_sketch_merged_total",
		"fastsketches_sketch_backlog",
		"fastsketches_sketch_view_enabled",
		"fastsketches_sketch_view_lag_seconds",
		"fastsketches_sketch_resident_bytes",
	} {
		for _, labels := range []string{thetaLabels, weirdLabels} {
			if _, ok := e.get(metric, labels); !ok {
				t.Errorf("missing %s{%s}", metric, labels)
			}
		}
	}
	if v, _ := e.get("fastsketches_sketch_shards", thetaLabels); v != 2 {
		t.Errorf("shards gauge %v, want 2", v)
	}
	if v, _ := e.get("fastsketches_sketch_view_enabled", thetaLabels); v != 1 {
		t.Errorf("view_enabled %v, want 1 (Spec.View armed it)", v)
	}
	if v, ok := e.get("fastsketches_registry_sketches", ""); !ok || v != 2 {
		t.Errorf("registry_sketches %v (ok=%v), want 2", v, ok)
	}
	ing, _ := e.get("fastsketches_sketch_ingested_total", thetaLabels)
	mrg, _ := e.get("fastsketches_sketch_merged_total", thetaLabels)
	if ing <= 0 || mrg < 0 || mrg > ing {
		t.Errorf("pressure counters ingested=%v merged=%v; want 0 < merged ≤ ingested", ing, mrg)
	}

	// The removed autoscale plane left no series behind.
	if strings.Contains(out, "fastsketches_autoscale_") {
		t.Error("exposition still carries fastsketches_autoscale_* series")
	}

	// Manager series.
	if v, ok := e.get("fastsketches_ops_sweeps_total", ""); !ok || v != 1 {
		t.Errorf("ops_sweeps_total %v (ok=%v), want 1", v, ok)
	}
	if v, ok := e.get("fastsketches_ops_resident_bytes", ""); !ok || v <= 0 {
		t.Errorf("ops_resident_bytes %v (ok=%v), want > 0", v, ok)
	}

	// Histograms: structure plus exact totals.
	checkHistogram(t, e, "fastsketches_ingest_chunk_items")
	checkHistogram(t, e, "fastsketches_ingest_chunk_duration_seconds")
	if v, _ := e.get("fastsketches_ingest_chunk_items_count", ""); v != 4 {
		t.Errorf("items _count %v, want 4", v)
	}
	if v, _ := e.get("fastsketches_ingest_chunk_items_sum", ""); v != 1+3+256+4096 {
		t.Errorf("items _sum %v, want %d", v, 1+3+256+4096)
	}
	if v, _ := e.get("fastsketches_ingest_chunk_duration_seconds_sum", ""); v < 0.009 || v > 0.0092 {
		t.Errorf("duration _sum %v, want ≈ 0.00912 (ns scaled to seconds)", v)
	}
}

// TestMetricsMonotonicAcrossResize: the pressure counters exported as
// *_total must be monotonic across a live Resize — a scrape taken after a
// reshard never goes backwards from one taken before.
func TestMetricsMonotonicAcrossResize(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1, BufferSize: 1})
	h, err := reg.OpenCountMin("mono/cm", fastsketches.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	c := &ops.Collector{Reg: reg}
	labels := `family="countmin",name="mono/cm"`

	var lastIng, lastMrg float64
	for round, s := range []int{3, 1, 4} {
		for i := uint64(0); i < 1000; i++ {
			h.Update(0, i)
		}
		if err := h.Resize(s); err != nil {
			t.Fatal(err)
		}
		e := parseExposition(t, c.String())
		ing, ok1 := e.get("fastsketches_sketch_ingested_total", labels)
		mrg, ok2 := e.get("fastsketches_sketch_merged_total", labels)
		if !ok1 || !ok2 {
			t.Fatal("pressure series missing from scrape")
		}
		if ing < lastIng || mrg < lastMrg {
			t.Fatalf("round %d: counters went backwards across Resize(%d): ingested %v→%v merged %v→%v",
				round, s, lastIng, ing, lastMrg, mrg)
		}
		lastIng, lastMrg = ing, mrg
	}
	if lastIng < 3000 {
		t.Errorf("final ingested_total %v, want ≥ 3000 (counter must accumulate across epochs)", lastIng)
	}
}

// TestMetricsHTTP: the endpoint serves the exposition with the 0.0.4
// content type, and the root path points at it.
func TestMetricsHTTP(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 1, Writers: 1})
	if _, err := reg.OpenTheta("http/t", fastsketches.Spec{}); err != nil {
		t.Fatal(err)
	}
	ms, err := ops.ListenMetrics("127.0.0.1:0", &ops.Collector{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 text format", ct)
	}
	e := parseExposition(t, string(body))
	if _, ok := e.get("fastsketches_sketch_shards", `family="theta",name="http/t"`); !ok {
		t.Error("scrape over HTTP missing per-sketch series")
	}

	// Sanity: the metric set is stable across scrapes (no duplicated or
	// re-ordered headers from buffer reuse).
	resp2, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	e2 := parseExposition(t, string(body2))
	var m1, m2 []string
	for k := range e.types {
		m1 = append(m1, k)
	}
	for k := range e2.types {
		m2 = append(m2, k)
	}
	sort.Strings(m1)
	sort.Strings(m2)
	if fmt.Sprint(m1) != fmt.Sprint(m2) {
		t.Errorf("metric sets differ between scrapes:\n%v\n%v", m1, m2)
	}
}
