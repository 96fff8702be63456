package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The four sketch families and the six query classes, in the order every
// table prints them.
var (
	families    = []string{"theta", "hll", "quantiles", "countmin"}
	liveClasses = []string{"theta_est", "hll_est", "quantile", "cm_count"}
	allClasses  = []string{"theta_est", "hll_est", "quantile", "cm_count", "view_theta_est", "window_theta_est"}
	workloads   = []string{"lib_ingest", "lib_mixed", "served_ingest", "served_open"}
)

// Indices into families.
const (
	famTheta = iota
	famHLL
	famQuantiles
	famCountMin
)

// metricDef is one row of the benchmark's schema; BENCHMARK.json lists the
// same names and units (schema_test.go holds the two together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// prints exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mitems_s", "Mitems/s"},
	{"cpu_us_item", "us"},
	{"query_p50_gm_us", "us"},
	{"ack_p50_gm_us", "us"},
	{"peak_rss_mb", "MB"},
	{"relaxation_items", "items"},
}

// perLayer are the single-layer metrics; a traced run prints exactly these.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit, format string, args ...any) {
		d = append(d, metricDef{fmt.Sprintf(format, args...), unit})
	}
	add("ns", "murmur.hash_ns_item")
	for _, f := range families {
		add("ns", "%s.seq_ns_item", f)
		add("us", "%s.fold_us", f)
	}
	for _, f := range families {
		add("ns", "core.ingest_ns_item.%s", f)
	}
	add("ratio", "core.filter_ratio.theta")
	add("items", "core.backlog_p50_items")
	add("items", "core.stale_p50_items")
	add("ratio", "core.stale_max_frac")
	for _, f := range families {
		add("ns", "shard.ingest_ns_item.%s.S1", f)
		add("ns", "shard.ingest_ns_item.%s.S4", f)
		add("us", "shard.query_us.%s.S4", f)
	}
	add("us", "shard.view_query_us.theta")
	add("us", "shard.window_query_us.theta")
	add("us", "shard.view_refresh_us")
	add("us", "shard.rotate_us")
	add("ms", "shard.resize_ms")
	for _, f := range families {
		add("ns", "registry.ingest_ns_item.%s", f)
		add("us", "registry.batch_p50_us.%s", f)
	}
	add("us", "registry.open_us")
	add("us", "registry.drop_us")
	for _, c := range allClasses {
		add("us", "registry.query_p50_us.%s", c)
		add("us", "registry.query_p99_us.%s", c)
	}
	add("ms", "snapshot.checkpoint_ms")
	add("bytes", "snapshot.checkpoint_bytes")
	add("ms", "snapshot.restore_ms")
	add("ns", "wire.encode_ns_item")
	add("ns", "wire.decode_ns_item")
	for _, f := range families {
		add("ns", "server.ingest_ns_item.%s.b64", f)
		add("ns", "server.ingest_ns_item.%s.b1024", f)
	}
	add("items", "server.lane_batch_items_p50")
	add("ratio", "server.lane_busy_frac")
	add("us", "server.ack_p50_us.r050")
	add("us", "server.ack_p50_us.r100")
	add("us", "server.ack_p50_us.r200")
	add("ns", "client.add_ns_item")
	for _, f := range families {
		add("us", "client.flush_p50_us.%s", f)
		add("us", "client.flush_p99_us.%s", f)
	}
	for _, c := range allClasses {
		add("us", "client.query_p50_us.%s", c)
		add("us", "client.query_p99_us.%s", c)
	}
	add("ms", "ops.scrape_ms")
	add("bytes", "ops.resident_bytes")
	add("ms", "harness.ref_spin_ms")
	add("ms", "harness.ref_walk_ms")
	add("ratio", "harness.disturbed_frac")
	add("us", "harness.gen_late_p99_us")
	add("ratio", "harness.late_frac")
	add("ratio", "harness.trace_overhead_frac")
	return d
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// metricSet maps metric names to values; the unit comes from the schema.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, n int) { m[name] = metric{v, n} }

// overlay copies every metric of o into m.
func (m metricSet) overlay(o metricSet) {
	for k, v := range o {
		m[k] = v
	}
}

// tally counts operations attempted and failed. A correctness check is an
// operation: a wrong answer fails the run exactly as a refused request does.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

const maxFailureMsgs = 20

// ok records n operations that succeeded.
func (t *tally) ok(n int64) { t.attempted.Add(n) }

// fail records one failed operation and keeps the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < maxFailureMsgs {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records one operation that succeeded iff cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.attempted.Add(1)
		return
	}
	t.fail(format, args...)
}
