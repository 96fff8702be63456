package main

import (
	"fmt"
	"syscall"
	"time"
)

// Two fixed kernels run before the set-up and after every pass. Neither
// depends on the code under test, so what moves them is the machine.
//
// The spin (refSpin) touches no memory: it slows down when a core is taken
// away, and marks the passes beside it as disturbed (undisturbed).
//
// The walk is a fixed pseudo-random read-modify-write walk over a table far
// larger than the caches. The reference box is a virtual machine whose
// memory system other tenants share; its speed for cache-missing work — which
// is what sketch updates, folds and snapshot copies are — drifts by tens of
// percent over minutes while the spin stays flat. The walk follows that
// drift, so the durations of a run are expressed at the speed of a nominal
// machine, one that runs the walk in walkNominalMS (machineSpeed). README.md
// shows what this buys on the reference box.
const (
	walkBytes     = 64 << 20
	walkSteps     = 2_000_000
	walkNominalMS = 25.0
	walkPage      = 4096
)

// reference is one reading of both kernels, in ms.
type reference struct{ spinMS, walkMS float64 }

// referee owns the walk's table. The table is mapped for the whole run but
// resident only while a walk runs, so that it never counts in the peak RSS
// of a library workload's pass.
type referee struct{ table []byte }

func newReferee() (*referee, error) {
	table, err := syscall.Mmap(-1, 0, walkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the reference walk's table: %w", err)
	}
	return &referee{table: table}, nil
}

func (r *referee) close() { _ = syscall.Munmap(r.table) } // the process is about to exit anyway

// take runs both kernels.
func (r *referee) take() reference {
	return reference{spinMS: refSpin(), walkMS: r.walk()}
}

// walk faults the table in (untimed), times the walk and gives the pages
// back.
func (r *referee) walk() float64 {
	for i := 0; i < len(r.table); i += walkPage {
		r.table[i] = 1
	}
	t0 := time.Now()
	idx := uint64(1)
	for i := 0; i < walkSteps; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		r.table[idx>>38]++ // the top 26 bits: one of 64 Mi bytes
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	_ = syscall.Madvise(r.table, syscall.MADV_DONTNEED) // best effort: a resident table only blunts peak_rss_mb
	return ms
}

// machineSpeed is the machine's speed during a run relative to the nominal
// machine, from the median of the run's walks: 1.25 means the walk ran in
// 80% of its nominal time. A duration measured in the run times the speed is
// the duration at nominal speed; a rate is divided by it. One factor serves
// the whole run: a single walk varies by ±5% on a quiet machine, the median
// of eleven by less than what it corrects (README.md, "Scaling").
func machineSpeed(walksMS []float64) float64 { return walkNominalMS / median(walksMS) }
