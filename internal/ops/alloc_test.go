//go:build !race

package ops_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/clock"
	"fastsketches/internal/ops"
)

// TestIngestZeroAllocUnderScrape pins the observability tax at zero: the
// ingest hot path stays 0 allocs/op while the full /metrics exposition of a
// multi-tenant registry is rendered beside it on a Prometheus-like cadence —
// the wait-free-counter contract that lets a scraper poll at any rate.
// Allocation counters are process-wide, so the scraper's own (bounded,
// by-design) allocations are in the count; testing.Benchmark runs millions
// of updates against its hundreds of scrapes, so the integer allocs/op is 0
// unless the ingest side allocates per op.
func TestIngestZeroAllocUnderScrape(t *testing.T) {
	reg := newRegistry(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	var ing *fastsketches.CountMinHandle
	for i := 0; i < 8; i++ {
		h, err := reg.OpenCountMin(fmt.Sprintf("ops.tenant%d", i), fastsketches.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < 4096; j++ {
			h.Update(0, j%512)
		}
		ing = h
	}
	if _, err := reg.OpenTheta("ops.uniques", fastsketches.Spec{}); err != nil {
		t.Fatal(err)
	}
	mgr, err := ops.NewManager(reg, ops.Config{
		IdleTTL: time.Hour, MemBudget: 1 << 40, Clock: clock.NewManual(time.Unix(1<<20, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &ops.IngestObserver{}
	for i := int64(1); i <= 4096; i <<= 1 {
		obs.ObserveChunk(i, i*300)
	}
	col := &ops.Collector{Reg: reg, Manager: mgr, Ingest: obs}

	stop, scraped := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			case <-time.After(10 * time.Millisecond):
			}
			if err := col.WriteMetrics(io.Discard); err != nil {
				scraped <- err
				return
			}
		}
	}()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ing.Update(0, uint64(i)%512)
		}
	})
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("ingest beside a 10ms scraper: %d allocs/op (%d B/op over %d ops), want 0", a, res.AllocedBytesPerOp(), res.N)
	}
}
