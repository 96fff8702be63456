// Sketchd is the network front-end daemon: a fastsketches.Registry served
// over TCP with the internal/wire protocol — batched ingest fanned into
// writer lanes, pipelined merged queries through per-connection reusable
// accumulators, one control op applying a Spec (shards, window, view,
// idle TTL, pinning), and drop / names / info. Checkpoints keep
// each sketch's whole Spec, so a restarted daemon serves every tenant as it
// was configured. Use the fastsketches/client library to talk to it:
//
//	sketchd -addr 127.0.0.1:7600 -shards 4 -writers 4
//
// Every flag mirrors a RegistryConfig field, so a sketchd instance is
// exactly an in-process registry lifted onto the network: served queries
// carry the same S·r staleness bound as in-process merged queries, and an
// acked ingest batch is a set of completed updates under that bound.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: the listener closes,
// in-flight batches complete and are acked, received pipeline frames are
// served, and the registry drains every sketch buffer exactly before the
// process reports the drain and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastsketches"
	"fastsketches/internal/ops"
	"fastsketches/internal/server"
	"fastsketches/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7600", "TCP listen address")
	shards := flag.Int("shards", 0, "initial shards S per sketch (0 = library default)")
	writers := flag.Int("writers", 0, "writer lanes per sketch (0 = library default)")
	maxError := flag.Float64("max-error", 0, "per-shard eager-phase error budget e (0 = default)")
	bufferSize := flag.Int("buffer", 0, "per-writer buffer b override (0 = derive per family)")
	thetaLgK := flag.Int("theta-lgk", 0, "log2 Θ sample count per shard (0 = default)")
	hllP := flag.Int("hll-p", 0, "HLL precision per shard (0 = default)")
	quantK := flag.Int("quantiles-k", 0, "quantiles summary parameter per shard (0 = default)")
	cmEps := flag.Float64("cm-eps", 0, "Count-Min epsilon (0 = default)")
	cmDelta := flag.Float64("cm-delta", 0, "Count-Min delta (0 = default)")
	winInterval := flag.Duration("window-interval", 0, "default sliding-window rotation interval for every sketch (0 = no default window)")
	winSlots := flag.Int("window-slots", 0, "default window's closed-interval capacity (0 = library default; requires -window-interval)")
	winDecay := flag.Float64("window-decay", 0, "default Count-Min exponential decay factor in [0,1) (0 = none; requires -window-interval)")
	restorePath := flag.String("restore", "", "checkpoint file to warm-start from (missing file is not an error)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file to write periodically and on shutdown")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics in Prometheus text format (empty = disabled)")
	idleTTL := flag.Duration("idle-ttl", 0, "evict sketches idle (no completed ingest) this long (0 = disabled)")
	memBudget := flag.Int64("mem-budget", 0, "resident sketch-bytes budget; over it, idle tenants shrink then shed (0 = unlimited)")
	opsSweepEvery := flag.Duration("ops-sweep-every", 5*time.Second, "lifecycle sweep interval (with -idle-ttl or -mem-budget)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: sketchd [flags]\n")
		flag.PrintDefaults()
		os.Exit(2)
	}

	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: *shards, Writers: *writers,
		MaxError: *maxError, BufferSize: *bufferSize,
		ThetaLgK: *thetaLgK, HLLPrecision: *hllP, QuantilesK: *quantK,
		CountMinEpsilon: *cmEps, CountMinDelta: *cmDelta,
		WindowInterval: *winInterval, WindowSlots: *winSlots, WindowDecay: *winDecay,
	})
	if err != nil {
		log.Fatalf("sketchd: %v", err)
	}
	if *restorePath != "" {
		switch err := reg.RestoreFile(*restorePath); {
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing to warm-start from yet. With -checkpoint
			// pointing at the same path, the file appears on first write.
			log.Printf("sketchd: no checkpoint at %s, starting empty", *restorePath)
		case err != nil:
			log.Fatalf("sketchd: restore %s: %v", *restorePath, err)
		default:
			log.Printf("sketchd: restored %s", *restorePath)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sketchd: %v", err)
	}
	cfg := reg.Config()
	log.Printf("sketchd: serving on %s (S=%d, W=%d per sketch)",
		ln.Addr(), cfg.Shards, cfg.Writers)

	srv := server.New(reg)
	var ck *fastsketches.Checkpointer
	if *ckptPath != "" {
		ck, err = fastsketches.NewCheckpointer(reg, *ckptPath, *ckptEvery, nil,
			func(err error) { log.Printf("sketchd: checkpoint: %v", err) })
		if err != nil {
			log.Fatalf("sketchd: %v", err)
		}
		ck.Start()
		srv.SetCheckpoint(ck.CheckpointNow)
		log.Printf("sketchd: checkpointing to %s every %v", *ckptPath, *ckptEvery)
	}
	var mgr *ops.Manager
	if *idleTTL > 0 || *memBudget > 0 {
		mgr, err = ops.NewManager(reg, ops.Config{
			IdleTTL:    *idleTTL,
			MemBudget:  *memBudget,
			SweepEvery: *opsSweepEvery,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("sketchd: %v", err)
		}
		mgr.Start()
		srv.SetOps(func() wire.OpsStats {
			st := mgr.Stats()
			return wire.OpsStats{
				Sweeps: st.Sweeps, Evictions: st.Evictions,
				BudgetSheds: st.BudgetSheds, BudgetShrinks: st.BudgetShrinks,
				ResidentBytes: st.ResidentBytes, BudgetBytes: st.BudgetBytes,
				Sketches: st.Sketches,
			}
		})
		log.Printf("sketchd: lifecycle sweeps every %v (idle-ttl %v, mem-budget %d)",
			*opsSweepEvery, *idleTTL, *memBudget)
	}
	var ms *ops.MetricsServer
	if *metricsAddr != "" {
		obs := &ops.IngestObserver{}
		srv.SetIngestObserver(obs.ObserveChunk)
		ms, err = ops.ListenMetrics(*metricsAddr, &ops.Collector{
			Reg: reg, Manager: mgr, Ingest: obs,
		})
		if err != nil {
			log.Fatalf("sketchd: metrics: %v", err)
		}
		log.Printf("sketchd: metrics on http://%s/metrics", ms.Addr())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// The sweeper stops before the server (no eviction may race the lane
	// teardown) and the metrics listener stops before the registry closes
	// (a scrape must never read a closing registry).
	stopOps := func() {
		if mgr != nil {
			mgr.Stop()
		}
		if ms != nil {
			ms.Close()
		}
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigC:
		log.Printf("sketchd: %v — draining", sig)
	case err := <-serveErr:
		// A fatal accept error: still drain gracefully — handlers finish
		// and ack in-flight work before the registry closes.
		stopOps()
		srv.Shutdown()
		drainAndCheckpoint(reg, ck)
		log.Fatalf("sketchd: serve: %v", err)
	}

	stopOps()
	srv.Shutdown() // in-flight batches complete and are acked before this returns
	drainAndCheckpoint(reg, ck)
	log.Printf("sketchd: drained in-flight batches, registry closed; bye")
}

// drainAndCheckpoint closes the registry (exact drain of every sketch
// buffer) and then writes the final checkpoint, so the file on disk holds
// every acked update — checkpointing a closed registry reads its fully
// drained state. The periodic loop is stopped first so the two writers
// never interleave on the file.
func drainAndCheckpoint(reg *fastsketches.Registry, ck *fastsketches.Checkpointer) {
	if ck != nil {
		ck.Stop()
	}
	reg.Close()
	if ck != nil {
		if err := ck.CheckpointNow(); err != nil {
			log.Printf("sketchd: final checkpoint: %v", err)
		} else {
			log.Printf("sketchd: final checkpoint written")
		}
	}
}
