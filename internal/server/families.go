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

// sketch is the family-agnostic slice of a sharded sketch the request
// handlers drive — the lane claim around an ingest, the closed check that
// revalidates the per-connection cache, and the snapshot ops (snapshot,
// restore, merge-remote) — and the type the per-connection cache holds;
// all four shard wrappers satisfy it. Updates and queries go through the
// concrete type their family row narrows it to.
type sketch interface {
	AcquireLane() (lane int, ok bool)
	ReleaseLane(lane int)
	Closed() bool
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
	// update feeds one batch of packed wire items to sk's batched update on
	// a lane the caller has claimed, decoding them block by block into the
	// connection's scratch.
	update func(sk sketch, lane int, items []byte, sc *scratch)
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
	wire.FamilyTheta:     row((*fastsketches.Registry).OpenTheta, decodeWords, estimateKinds[*theta.Union, *shard.Theta]()),
	wire.FamilyHLL:       row((*fastsketches.Registry).OpenHLL, decodeWords, estimateKinds[*hll.Sketch, *shard.HLL]()),
	wire.FamilyQuantiles: row((*fastsketches.Registry).OpenQuantiles, decodeFloats, quantilesKinds),
	wire.FamilyCountMin:  row((*fastsketches.Registry).OpenCountMin, decodeWords, countMinKinds),
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
// (indexed by wire.Query). The type assertion sk.(S) in update and querier
// is the one place the cached interface is narrowed back to the concrete
// sketch.
func row[T any, A any, S interface {
	fastsketches.Sketch[T, A]
	sketch
	DecayedQueryInto(A) bool
}](
	open func(*fastsketches.Registry, string, fastsketches.Spec) (*fastsketches.Handle[T, A, S], error),
	decode func(sc *scratch, items []byte) []T,
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
		update: func(sk sketch, lane int, items []byte, sc *scratch) {
			s := sk.(S)
			for len(items) >= wire.ItemSize {
				block := decode(sc, items)
				s.UpdateBatch(lane, block)
				items = items[len(block)*wire.ItemSize:]
			}
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

// applyBlock is the decode granularity of the ingest path: wire items are
// decoded into the connection's scratch in blocks this large, each handed
// to the family's UpdateBatch, so per-item work on the connection's
// goroutine is one LittleEndian load and one scratch store — all
// sketch-side coordination is amortised per block.
const applyBlock = 512

// scratch is one connection's decode blocks, one per wire item type. The
// connection's goroutine is their only user, so the steady-state ingest
// path allocates nothing.
type scratch struct {
	words  [applyBlock]uint64
	floats [applyBlock]float64
}

// decodeWords decodes the leading block of packed little-endian uint64
// items into sc.
func decodeWords(sc *scratch, items []byte) []uint64 {
	block := sc.words[:min(len(items)/wire.ItemSize, applyBlock)]
	for i := range block {
		block[i] = binary.LittleEndian.Uint64(items[i*wire.ItemSize:])
	}
	return block
}

// decodeFloats is decodeWords for the quantiles family, whose wire items
// are float64 bit patterns.
func decodeFloats(sc *scratch, items []byte) []float64 {
	block := sc.floats[:min(len(items)/wire.ItemSize, applyBlock)]
	for i := range block {
		block[i] = math.Float64frombits(binary.LittleEndian.Uint64(items[i*wire.ItemSize:]))
	}
	return block
}
