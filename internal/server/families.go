package server

import (
	"encoding/binary"
	"math"

	"fastsketches"
	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

// sketch is the family-agnostic slice of a sharded sketch the snapshot ops
// (snapshot, restore, merge-remote) drive, and the type the per-connection
// cache holds; all four shard wrappers satisfy it. Ingest and queries go
// through the concrete type their family row narrows it to.
type sketch interface {
	Shards() int
	AppendSnapshot(dst []byte) []byte
	ImportSnapshot(blob []byte) error
}

// family is one row of the serving layer's family table — everything the
// request handlers need to know about a family, so none of them switches on
// it.
type family struct {
	// open applies spec to the named sketch of this family, creating it on
	// first use — the family's Open*.
	open func(reg *fastsketches.Registry, name string, spec fastsketches.Spec) (sketch, error)
	// applier builds a lane set's apply function for sk: decode one chunk of
	// packed wire items into per-lane scratch and hand it to the sketch's
	// batched update.
	applier func(sk sketch, writers int) func(lane int, items []byte)
	// answers reports whether this family serves the query kind.
	answers func(q wire.Query) bool
	// querier builds one connection's query function for this family. The
	// function owns the connection's reusable accumulator: accumulator
	// dimensions depend only on the registry's family parameters — never on
	// the sketch name or its shard count — so one per family per connection
	// serves every sketch the connection queries, across any number of
	// resizes.
	querier func() queryFunc
}

// queryFunc answers one query kind the family serves (family.answers) on
// sk. A non-empty missing names the plane the kind reads that is not
// declared on sk.
type queryFunc func(sk sketch, q wire.Query, arg uint64) (result uint64, missing plane)

// families is the family table, indexed by wire.Family (index 0 is unused;
// wire.ParseRequest only lets defined families through).
var families = [...]family{
	wire.FamilyTheta:     row((*fastsketches.Registry).OpenTheta, applyWords, estimateKinds[*theta.Union, *shard.Theta]()),
	wire.FamilyHLL:       row((*fastsketches.Registry).OpenHLL, applyWords, estimateKinds[*hll.Sketch, *shard.HLL]()),
	wire.FamilyQuantiles: row((*fastsketches.Registry).OpenQuantiles, applyFloats, quantilesKinds),
	wire.FamilyCountMin:  row((*fastsketches.Registry).OpenCountMin, applyWords, countMinKinds),
}

// plane is the part of a sketch's state a query kind folds into the
// connection's accumulator before reading its scalar off; the string is how
// an error names a plane that is not declared.
type plane string

const (
	// owningShard kinds fold nothing: they read the key's owning shard
	// directly, at the single-shard staleness bound r.
	owningShard plane = ""
	// cumulative kinds fold the whole stream (QueryInto): all but at most
	// S·r completed updates, transiently S_old·r + S_new·r while a resize
	// drains.
	cumulative plane = "cumulative plane"
	// windowed kinds fold the declared sliding window (WindowQueryInto).
	windowed plane = "window"
	// decayed kinds fold the exponentially time-decayed plane
	// (DecayedQueryInto).
	decayed plane = "decayed window"
)

// kind is one query kind of one family: the plane it folds and how the
// scalar is read (off the accumulator, or for owningShard off the sketch).
// The zero kind marks a query the family does not serve.
type kind[A any, S any] struct {
	plane plane
	read  func(sk S, acc A, arg uint64) uint64
}

// row assembles one family's table row from its typed pieces: the
// registry's Open* constructor, the wire item decoder, and the kind list
// (indexed by wire.Query). The type assertion sk.(S) in applier and querier
// is the one place the cached interface is narrowed back to the concrete
// sketch.
func row[T any, A any, S interface {
	fastsketches.Sketch[T, A]
	sketch
	DecayedQueryInto(A) bool
}](
	open func(*fastsketches.Registry, string, fastsketches.Spec) (*fastsketches.Handle[T, A, S], error),
	decode func(writers int, update func(lane int, items []T)) func(lane int, items []byte),
	kinds []kind[A, S],
) family {
	return family{
		open: func(reg *fastsketches.Registry, name string, spec fastsketches.Spec) (sketch, error) {
			h, err := open(reg, name, spec)
			if err != nil {
				return nil, err
			}
			return h.Sketch(), nil
		},
		applier: func(sk sketch, writers int) func(lane int, items []byte) {
			return decode(writers, sk.(S).UpdateBatch)
		},
		answers: func(q wire.Query) bool {
			return int(q) < len(kinds) && kinds[q].read != nil
		},
		querier: func() queryFunc {
			// The accumulator is built on the first query that folds one (a
			// Count-Min per-key Count never does).
			var acc A
			var built bool
			return func(sketch sketch, q wire.Query, arg uint64) (uint64, plane) {
				sk, k := sketch.(S), kinds[q]
				if k.plane == owningShard {
					return k.read(sk, acc, arg), ""
				}
				if !built {
					acc, built = sk.NewAccumulator(), true
				}
				declared := true
				switch k.plane {
				case cumulative:
					sk.QueryInto(acc)
				case windowed:
					declared = sk.WindowQueryInto(acc)
				case decayed:
					declared = sk.DecayedQueryInto(acc)
				}
				if !declared {
					return 0, k.plane
				}
				return k.read(sk, acc, arg), ""
			}
		},
	}
}

// estimateKinds serves the distinct-count families (Θ, HLL).
func estimateKinds[A interface{ Estimate() float64 }, S any]() []kind[A, S] {
	estimate := func(_ S, acc A, _ uint64) uint64 { return math.Float64bits(acc.Estimate()) }
	return []kind[A, S]{
		wire.QueryEstimate:       {cumulative, estimate},
		wire.QueryWindowEstimate: {windowed, estimate},
	}
}

// quantilesKinds serves the quantiles family; Quantile and Rank carry their
// float64 argument as bits.
var quantilesKinds = func() []kind[*quantiles.Accumulator, *shard.Quantiles] {
	quantile := func(_ *shard.Quantiles, acc *quantiles.Accumulator, phi uint64) uint64 {
		return math.Float64bits(acc.Quantile(math.Float64frombits(phi)))
	}
	rank := func(_ *shard.Quantiles, acc *quantiles.Accumulator, v uint64) uint64 {
		return math.Float64bits(acc.Rank(math.Float64frombits(v)))
	}
	n := func(_ *shard.Quantiles, acc *quantiles.Accumulator, _ uint64) uint64 { return acc.N() }
	return []kind[*quantiles.Accumulator, *shard.Quantiles]{
		wire.QueryQuantile:       {cumulative, quantile},
		wire.QueryRank:           {cumulative, rank},
		wire.QueryN:              {cumulative, n},
		wire.QueryWindowQuantile: {windowed, quantile},
		wire.QueryWindowN:        {windowed, n},
	}
}()

// countMinKinds serves the Count-Min family.
var countMinKinds = func() []kind[*countmin.Sketch, *shard.CountMin] {
	count := func(_ *shard.CountMin, acc *countmin.Sketch, key uint64) uint64 { return acc.Estimate(key) }
	n := func(_ *shard.CountMin, acc *countmin.Sketch, _ uint64) uint64 { return acc.N() }
	return []kind[*countmin.Sketch, *shard.CountMin]{
		wire.QueryCount: {owningShard, func(sk *shard.CountMin, _ *countmin.Sketch, key uint64) uint64 {
			return sk.Estimate(key)
		}},
		wire.QueryN:            {cumulative, n},
		wire.QueryWindowCount:  {windowed, count},
		wire.QueryWindowN:      {windowed, n},
		wire.QueryDecayedCount: {decayed, count},
	}
}()

// applyBlock is the per-lane decode granularity of the batched apply path:
// wire items are decoded into a fixed per-lane scratch in blocks this large,
// each handed to the family's UpdateBatch, so per-item work in the lane
// worker is one LittleEndian load and one scratch store — all sketch-side
// coordination is amortised per block.
const applyBlock = 512

// applyWords builds a laneSet apply that decodes packed little-endian
// uint64 items into per-lane scratch blocks and feeds them to a family's
// batched update. One scratch block per lane, allocated once here: each lane
// is driven by its single worker goroutine, so the blocks are never shared
// and the steady-state path allocates nothing.
func applyWords(writers int, update func(lane int, keys []uint64)) func(lane int, items []byte) {
	scratch := make([][]uint64, writers)
	for l := range scratch {
		scratch[l] = make([]uint64, applyBlock)
	}
	return func(lane int, items []byte) {
		block := scratch[lane]
		for len(items) >= wire.ItemSize {
			n := len(items) / wire.ItemSize
			if n > applyBlock {
				n = applyBlock
			}
			for i := 0; i < n; i++ {
				block[i] = binary.LittleEndian.Uint64(items[i*wire.ItemSize:])
			}
			update(lane, block[:n])
			items = items[n*wire.ItemSize:]
		}
	}
}

// applyFloats is applyWords for the quantiles family, whose wire items are
// float64 bit patterns.
func applyFloats(writers int, update func(lane int, vs []float64)) func(lane int, items []byte) {
	scratch := make([][]float64, writers)
	for l := range scratch {
		scratch[l] = make([]float64, applyBlock)
	}
	return func(lane int, items []byte) {
		block := scratch[lane]
		for len(items) >= wire.ItemSize {
			n := len(items) / wire.ItemSize
			if n > applyBlock {
				n = applyBlock
			}
			for i := 0; i < n; i++ {
				block[i] = math.Float64frombits(binary.LittleEndian.Uint64(items[i*wire.ItemSize:]))
			}
			update(lane, block[:n])
			items = items[n*wire.ItemSize:]
		}
	}
}
