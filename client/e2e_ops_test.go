package client_test

// TestE2EOps drives the multi-tenant ops hardening against a real sketchd
// binary: /metrics scraped mid-ingest (all series live, pressure counters
// monotonic, ingest histograms populated), idle-TTL eviction firing on the
// lane-quiescing server drop path, memory-budget shrink/shed firing under
// tenant pressure, the OpsStats admin op reporting it all over the wire, a
// recreated tenant absorbing writes after its eviction, and a tenant pinned
// over the wire outliving the idle TTL that evicts its unpinned sibling.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastsketches/client"
)

var metricsRe = regexp.MustCompile(`metrics on http://(\S+)/metrics`)

// startSketchdOps boots the binary with the ops stack armed: an aggressive
// idle TTL and sweep cadence, a budget sized to a couple of tenants, and an
// ephemeral /metrics listener whose address is parsed from the daemon log.
func startSketchdOps(t *testing.T, bin string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-shards", "2", "-writers", "2",
		"-metrics-addr", "127.0.0.1:0",
		"-idle-ttl", "600ms",
		// A 2-shard Count-Min resident is ~218KB, a 1-shard one ~109KB:
		// 300KB fits Phase A's single tenant but stays exceeded even after
		// the sweeper shrinks every Phase B filler, forcing the shed path.
		"-mem-budget", "300000",
		"-ops-sweep-every", "100ms",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrC := make(chan string, 1)
	metricsC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrC <- m[1]:
				default:
				}
			}
			if m := metricsRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case metricsC <- m[1]:
				default:
				}
			}
		}
	}()
	var addr, maddr string
	deadline := time.After(15 * time.Second)
	for addr == "" || maddr == "" {
		select {
		case addr = <-addrC:
		case maddr = <-metricsC:
		case <-deadline:
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("sketchd never reported both addresses (serve=%q metrics=%q)", addr, maddr)
		}
	}
	return cmd, addr, maddr
}

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, maddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	return string(body)
}

// sampleValue extracts the value of the first sample line whose name and
// label substring match.
func sampleValue(t *testing.T, body, metric, labelSub string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, metric) || strings.HasPrefix(line, "#") {
			continue
		}
		if labelSub != "" && !strings.Contains(line, labelSub) {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func TestE2EOps(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon")
	}
	bin := buildSketchd(t)
	daemon, addr, maddr := startSketchdOps(t, bin)
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	cl, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// ---- Phase A: scrape mid-ingest. Writes keep flowing between the two
	// scrapes, so the second must observe strictly more ingested pressure.
	ingestRound := func(n int) {
		b := cl.NewBatch(client.CountMin, "ops.main")
		for i := 0; i < n; i++ {
			if err := b.Add(uint64(i % 509)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ingestRound(20_000)
	body1 := scrape(t, maddr)
	mainLabels := `family="countmin",name="ops.main"`
	ing1, ok := sampleValue(t, body1, "fastsketches_sketch_ingested_total", mainLabels)
	if !ok || ing1 <= 0 {
		t.Fatalf("mid-ingest scrape: ingested_total{%s} = %v (ok=%v)", mainLabels, ing1, ok)
	}
	for _, metric := range []string{
		"fastsketches_sketch_shards",
		"fastsketches_sketch_relaxation",
		"fastsketches_sketch_backlog",
		"fastsketches_sketch_resident_bytes",
		"fastsketches_registry_sketches",
		"fastsketches_ops_sweeps_total",
		"fastsketches_ops_mem_budget_bytes",
		"fastsketches_ingest_chunk_items_count",
		"fastsketches_ingest_chunk_duration_seconds_sum",
	} {
		if _, ok := sampleValue(t, body1, metric, ""); !ok {
			t.Errorf("scrape missing %s", metric)
		}
	}
	if v, _ := sampleValue(t, body1, "fastsketches_ingest_chunk_items_count", ""); v <= 0 {
		t.Error("ingest histogram empty while batches were being applied")
	}
	if v, _ := sampleValue(t, body1, "fastsketches_ops_mem_budget_bytes", ""); v != 300_000 {
		t.Errorf("mem_budget_bytes %v, want the configured 300000", v)
	}

	ingestRound(20_000)
	body2 := scrape(t, maddr)
	ing2, _ := sampleValue(t, body2, "fastsketches_sketch_ingested_total", mainLabels)
	if ing2 <= ing1 {
		t.Errorf("pressure not monotonic across scrapes: %v then %v", ing1, ing2)
	}

	// ---- Phase B: tenant pressure. A burst of filler tenants pushes the
	// resident set over the 1MB budget; sweeps (every 100ms) first shrink
	// them to one shard, then shed them.
	for i := 0; i < 6; i++ {
		b := cl.NewBatch(client.CountMin, fmt.Sprintf("ops.filler%d", i))
		for j := 0; j < 1000; j++ {
			if err := b.Add(uint64(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitStats := func(what string, cond func(client.OpsStats) bool) client.OpsStats {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := cl.OpsStats()
			if err != nil {
				t.Fatal(err)
			}
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; last stats %+v", what, st)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	st := waitStats("budget shrink+shed", func(st client.OpsStats) bool {
		return st.BudgetShrinks > 0 && st.BudgetSheds > 0
	})
	if st.Sweeps == 0 || st.ResidentBytes <= 0 || st.BudgetBytes != 300_000 {
		t.Errorf("ops stats after shed: %+v", st)
	}

	// ---- Phase C: idle eviction. Everything has now been quiet past the
	// 600ms TTL at some point; ops.main itself must eventually be evicted.
	st = waitStats("idle eviction", func(st client.OpsStats) bool { return st.Evictions > 0 })

	// /metrics keeps serving (and reports the reclaim) while all of this
	// fires — the acceptance gate for the observability plane.
	body3 := scrape(t, maddr)
	if v, _ := sampleValue(t, body3, "fastsketches_ops_evictions_total", ""); v < 1 {
		t.Errorf("exposition evictions_total %v, want ≥ 1", v)
	}
	if v, ok := sampleValue(t, body3, "fastsketches_ops_budget_sheds_total", ""); !ok || v < 1 {
		t.Errorf("exposition budget_sheds_total %v (ok=%v), want ≥ 1", v, ok)
	}

	// ---- Phase D: a recreated tenant absorbs writes after its eviction —
	// the sweeper's Registry.Drop waited out the claimed lanes, and the
	// connections reopen the name instead of writing to the closed sketch.
	// Quiesce (resize) then read back the exact post-eviction count.
	waitStats("ops.main evicted", func(st client.OpsStats) bool {
		return st.Evictions+st.BudgetSheds >= 1
	})
	b := cl.NewBatch(client.CountMin, "ops.main")
	const reborn = 5000
	for i := 0; i < reborn; i++ {
		if err := b.Add(uint64(i % 13)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Resize(client.CountMin, "ops.main", 3); err != nil {
		t.Fatal(err)
	}
	n, err := cl.CountMinN("ops.main")
	if err != nil {
		t.Fatal(err)
	}
	// The tenant may have been evicted again between the flush and the
	// query (the TTL is 600ms), in which case N restarts below reborn; it
	// must never exceed what was sent after the last recreation.
	if n > reborn {
		t.Errorf("post-eviction N = %d, want ≤ %d (stale pre-eviction state leaked)", n, reborn)
	}

	// ---- Phase E: pinning over the wire. Two HLL tenants go quiet together
	// under the same 600ms TTL; the one pinned through Apply must outlive
	// the sweep that drops its unpinned sibling.
	if err := cl.Apply(client.HLL, "ops.pinned", client.Spec{Pinned: true}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create(client.HLL, "ops.sibling"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ops.pinned", "ops.sibling"} {
		b := cl.NewBatch(client.HLL, name)
		for i := 0; i < 100; i++ {
			if err := b.Add(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := cl.Info(client.HLL, "ops.sibling"); err != nil {
			break // dropped by the sweeper
		}
		if time.Now().After(deadline) {
			t.Fatal("the unpinned sibling was never evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if inf, err := cl.Info(client.HLL, "ops.pinned"); err != nil || !inf.Spec.Pinned {
		t.Fatalf("pinned tenant after its sibling's eviction: %+v (err %v), want alive and pinned", inf.Spec, err)
	}
}
