package quantiles_test

import (
	"math/rand"
	"sync"
	"testing"

	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
)

// validate checks what every query path relies on in a published summary —
// values ascending, cumulative weights strictly increasing and totalling n,
// min ≤ values[0] ≤ values[last] ≤ max — by round-tripping it through the
// checkpoint codec, whose import rejects any summary that breaks them.
func validate(s *quantiles.Summary) error {
	acc := quantiles.NewAccumulator()
	acc.Merge(s)
	return quantiles.NewAccumulator().ImportFrom(acc.ExportTo(nil))
}

func TestSnapshotReadersRacePropagator(t *testing.T) {
	// Readers take the composable's snapshot, fold it into their own
	// accumulator, and fold a 4-shard sketch, while the propagator merges
	// 64-item buffers through hundreds of compactions. Every summary a
	// reader sees must be valid, and no reader may see N go backwards on any
	// path. Run under -race, this also checks that publication never writes
	// what a published summary shares.
	const k, b, compactions = 32, 64, 400
	c := quantiles.NewComposable(k, quantiles.NewRandomBits(1))
	sq, err := shard.NewQuantiles(k, shard.Config{Shards: 4, Writers: 1, BufferSize: b})
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			own, folded := quantiles.NewAccumulator(), sq.NewAccumulator()
			paths := []struct {
				name string
				read func() *quantiles.Summary
				last uint64
			}{
				{name: "Snapshot", read: c.Snapshot},
				{name: "SnapshotMergeInto", read: func() *quantiles.Summary {
					own.Reset()
					c.SnapshotMergeInto(own)
					return own.Summary()
				}},
				{name: "shard QueryInto", read: func() *quantiles.Summary {
					sq.QueryInto(folded)
					return folded.Summary()
				}},
			}
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one last round after the propagator stops
				default:
				}
				for i := range paths {
					p := &paths[i]
					s := p.read()
					if err := validate(s); err != nil {
						t.Errorf("%s: invalid summary at N=%d: %v", p.name, s.N(), err)
						return
					}
					if s.N() < p.last {
						t.Errorf("%s: N fell from %d to %d", p.name, p.last, s.N())
						return
					}
					p.last = s.N()
				}
			}
		}()
	}

	r := rand.New(rand.NewSource(2))
	buf := make([]float64, b)
	for i := 0; i < compactions*2*k; i += b {
		for j := range buf {
			buf[j] = r.Float64()
		}
		c.MergeBuffer(buf)
		sq.UpdateBatch(0, buf)
	}
	close(stop)
	readers.Wait()
	if got := c.Gadget().N() / (2 * k); got < compactions {
		t.Fatalf("propagator ran %d compactions, want %d", got, compactions)
	}
}
