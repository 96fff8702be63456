package ops

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"fastsketches"
)

// Collector assembles the /metrics exposition in Prometheus text format
// (version 0.0.4) from three sources: the registry's per-sketch
// introspection (required), the lifecycle Manager's counters (optional),
// and the serving layer's ingest histograms (optional). It holds no state
// of its own — every scrape reads the live wait-free counters, so
// successive scrapes see monotonic *_total series without the Collector
// ever touching the ingest or query hot paths.
type Collector struct {
	Reg     *fastsketches.Registry
	Manager *Manager        // nil: no ops_* series
	Ingest  *IngestObserver // nil: no ingest histograms
}

// sketchGauge is one per-sketch series: its metric name, help line,
// Prometheus type, and the field extractor.
type sketchGauge struct {
	name, help, typ string
	value           func(inf *fastsketches.SketchInfo) float64
}

var sketchSeries = []sketchGauge{
	{"fastsketches_sketch_shards", "Current shard count S.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.Spec.Shards) }},
	{"fastsketches_sketch_relaxation", "Live merged-query staleness bound S*r in completed updates (transiently S_old*r + S_new*r during a resize).", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.Relaxation) }},
	{"fastsketches_sketch_shard_relaxation", "Per-shard staleness bound r = 2*N*b.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.ShardRelaxation) }},
	{"fastsketches_sketch_eager", "1 while merged queries are still exact (every shard in its eager phase).", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return b2f(i.Eager) }},
	{"fastsketches_sketch_ingested_total", "Items handed to the propagation plane; monotonic across resizes.", "counter",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.Ingested) }},
	{"fastsketches_sketch_merged_total", "Items folded into shard snapshots; monotonic across resizes.", "counter",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.Merged) }},
	{"fastsketches_sketch_backlog", "Items published but not yet merged (ingested - merged).", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.Backlog) }},
	{"fastsketches_sketch_view_enabled", "1 when a materialized merged view serves this sketch's aggregate queries.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return b2f(i.Spec.View != nil) }},
	{"fastsketches_sketch_view_lag_seconds", "Age of the view's latest published refresh; 0 with no view.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return i.ViewLag.Seconds() }},
	{"fastsketches_sketch_resident_bytes", "Estimated resident heap footprint of the sketch.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.SizeBytes) }},
	{"fastsketches_sketch_window_enabled", "1 when a sliding window is declared on the sketch.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return b2f(i.Spec.Window != nil) }},
	{"fastsketches_sketch_window_slots", "Declared window capacity in closed rotation intervals; 0 with no window.", "gauge",
		func(i *fastsketches.SketchInfo) float64 {
			if i.Spec.Window == nil {
				return 0
			}
			return float64(i.Spec.Window.Slots)
		}},
	{"fastsketches_sketch_window_rotations_total", "Window ring rotations since the window was declared.", "counter",
		func(i *fastsketches.SketchInfo) float64 { return float64(i.WindowRotations) }},
	{"fastsketches_sketch_window_live_age_seconds", "Age of the window's live interval; 0 with no window.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return i.WindowLiveAge.Seconds() }},
	{"fastsketches_sketch_window_rotation_lag_seconds", "How far the live interval has outlived the rotation interval; sustained non-zero means the rotator is stalled.", "gauge",
		func(i *fastsketches.SketchInfo) float64 { return i.WindowRotationLag.Seconds() }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteMetrics writes the full exposition to w. The registry lock is held
// only for the brief map snapshot inside Infos; all counter reads are
// atomic loads and all formatting happens lock-free, so a slow scraper
// (or a slow w) never stalls writers, queriers, or the registry's control
// plane.
func (c *Collector) WriteMetrics(w io.Writer) error {
	infos := c.Reg.Infos()
	var buf []byte

	for _, s := range sketchSeries {
		buf = appendHeader(buf, s.name, s.help, s.typ)
		for i := range infos {
			buf = appendSample2(buf, s.name, &infos[i], s.value(&infos[i]))
		}
	}

	buf = appendHeader(buf, "fastsketches_registry_sketches", "Registered sketches, all families.", "gauge")
	buf = append(buf, "fastsketches_registry_sketches "...)
	buf = strconv.AppendInt(buf, int64(len(infos)), 10)
	buf = append(buf, '\n')

	if c.Manager != nil {
		buf = appendManager(buf, c.Manager.Stats())
	}
	if c.Ingest != nil {
		buf = appendHist(buf, "fastsketches_ingest_chunk_items",
			"Items per served ingest batch.", &c.Ingest.Items, 1)
		buf = appendHist(buf, "fastsketches_ingest_chunk_duration_seconds",
			"Apply duration per served ingest batch.", &c.Ingest.Nanos, 1e-9)
	}

	_, err := w.Write(buf)
	return err
}

// appendManager emits the lifecycle sweeper's counters.
func appendManager(buf []byte, st Stats) []byte {
	for _, s := range [...]struct {
		name, help, typ string
		v               int64
	}{
		{"fastsketches_ops_sweeps_total", "Completed lifecycle sweep passes.", "counter", st.Sweeps},
		{"fastsketches_ops_evictions_total", "Sketches dropped by idle-TTL eviction.", "counter", st.Evictions},
		{"fastsketches_ops_budget_sheds_total", "Sketches dropped by the memory-budget accountant.", "counter", st.BudgetSheds},
		{"fastsketches_ops_budget_shrinks_total", "Sketches resized down by the memory-budget accountant.", "counter", st.BudgetShrinks},
		{"fastsketches_ops_resident_bytes", "Summed estimated resident sketch bytes at the last sweep.", "gauge", st.ResidentBytes},
		{"fastsketches_ops_mem_budget_bytes", "Configured memory budget; 0 = unlimited.", "gauge", st.BudgetBytes},
	} {
		buf = appendHeader(buf, s.name, s.help, s.typ)
		buf = append(buf, s.name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, s.v, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// appendHist emits one Hist as a Prometheus histogram. Bucket i of Hist
// holds values of bit length i, so the cumulative count through bucket i
// covers v ≤ 2^i - 1: the le bound is (2^i - 1)·scale. Empty tail buckets
// are elided (the +Inf bucket always appears).
func appendHist(buf []byte, name, help string, h *Hist, scale float64) []byte {
	var counts [histBuckets]int64
	h.snapshot(&counts)
	// Snapshot count/sum after the buckets: Observe adds the bucket first,
	// so count ≥ Σ emitted buckets never undercounts +Inf.
	count, sum := h.Count(), h.Sum()
	hi := 0
	for i, n := range counts {
		if n != 0 {
			hi = i
		}
	}
	buf = appendHeader(buf, name, help, "histogram")
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += counts[i]
		le := float64(uint64(1)<<uint(i)-1) * scale
		buf = append(buf, name...)
		buf = append(buf, "_bucket{le=\""...)
		buf = strconv.AppendFloat(buf, le, 'g', -1, 64)
		buf = append(buf, "\"} "...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_bucket{le=\"+Inf\"} "...)
	buf = strconv.AppendInt(buf, count, 10)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_sum "...)
	buf = strconv.AppendFloat(buf, float64(sum)*scale, 'g', -1, 64)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count "...)
	buf = strconv.AppendInt(buf, count, 10)
	buf = append(buf, '\n')
	return buf
}

// appendHeader appends the # HELP / # TYPE preamble of one metric.
func appendHeader(buf []byte, name, help, typ string) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, help...)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, typ...)
	buf = append(buf, '\n')
	return buf
}

// appendSample2 appends one sample carrying the standard identity labels
// {family, name}.
func appendSample2(buf []byte, metric string, inf *fastsketches.SketchInfo, v float64) []byte {
	buf = append(buf, metric...)
	buf = append(buf, "{family=\""...)
	buf = appendEscaped(buf, inf.Family)
	buf = append(buf, "\",name=\""...)
	buf = appendEscaped(buf, inf.Name)
	buf = append(buf, "\"} "...)
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	buf = append(buf, '\n')
	return buf
}

// appendEscaped appends a label value with the text-format escapes:
// backslash, double quote, and newline.
func appendEscaped(buf []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\"\n") {
		return append(buf, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// String renders the exposition to a string — a convenience for tests and
// debugging.
func (c *Collector) String() string {
	var sb strings.Builder
	if err := c.WriteMetrics(&sb); err != nil {
		return fmt.Sprintf("ops: collect: %v", err)
	}
	return sb.String()
}
