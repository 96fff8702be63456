package theta

import "fmt"

// Set operations over Θ sketches. Like Apache DataSketches, the Θ sketch
// family supports not just distinct counting but estimating the cardinality
// of unions, intersections and differences of streams, because each sketch
// is a uniform sample of hash space below its threshold.

// Union accumulates the union of many Θ sketches. It is itself backed by a
// QuickSelect sketch: union Θ is the minimum input Θ (further lowered by
// retention pressure) and the estimate is retained/θ.
//
// The retained set lives in one of two places. Normally it is the gadget's
// hash table. A FoldShards into a union holding no entries instead leaves it
// as a flat run in the gadget's rebuild scratch (flat == true, table empty):
// disjoint inputs need no deduplication, so no table is built. Reads
// (Estimate, FoldInto, ExportTo, Result) take either form; Add, AddHashes,
// ImportFrom and any fold into a non-empty union first settle the run into
// the table, and Reset drops it.
type Union struct {
	gadget *QuickSelect
	flat   bool
	// snaps is FoldShards' scratch of loaded snapshots, cleared after every
	// fold so that a pooled union pins no retired snapshot.
	snaps []*CompactSketch
}

// NewUnion returns an empty union accumulator with 2^lgK nominal entries.
func NewUnion(lgK int, seed uint64) *Union {
	return &Union{gadget: NewQuickSelect(lgK, seed)}
}

// Add folds a sketch into the union.
func (u *Union) Add(s Sketch) {
	u.settle()
	u.gadget.Merge(s)
}

// AddHashes folds raw retained hashes (with their source threshold) into the
// union.
func (u *Union) AddHashes(hashes []uint64, thetaLong uint64) {
	u.settle()
	u.gadget.shrinkTheta(thetaLong)
	u.gadget.MergeHashes(hashes)
}

// FoldShards folds the latest published snapshots of a group of composables
// into the union. The group's retained sets must be pairwise disjoint — the
// shards of one routing epoch, where every hash has exactly one owner — so
// the fold needs no deduplication. Each snapshot is loaded once and θ drops
// to the minimum of the union's and every snapshot's θ. Into a union holding
// no entries, the hashes below θ are appended to a flat run; whenever the run
// reaches 2k, the (k+1)-th smallest becomes θ and the k below it stay,
// exactly as QuickSelect.rebuild does. Into a non-empty union (which may
// already hold some of the same hashes) the fold shrinks θ once and inserts
// through the table. Requires EnableSnapshots on every composable; allocates
// nothing once the snapshot scratch has grown to the group size.
func (u *Union) FoldShards(shards []*Composable) {
	g := u.gadget
	theta := g.thetaLong
	for _, c := range shards {
		s := c.snap.Load()
		if s == nil {
			panic("theta: FoldShards requires EnableSnapshots before ingestion")
		}
		if s.seed != g.seed {
			panic("theta: cannot merge sketches with different seeds")
		}
		u.snaps = append(u.snaps, s)
		theta = min(theta, s.thetaLong)
	}
	if !u.flat && g.count == 0 {
		g.thetaLong = theta
		run := g.scratch[:0]
		for _, s := range u.snaps {
			for _, h := range s.hashes {
				if h >= g.thetaLong {
					continue
				}
				run = append(run, h)
				if len(run) == 2*g.k {
					g.thetaLong = quickSelect(run, g.k)
					run = run[:g.k]
				}
			}
		}
		g.scratch = run
		u.flat = len(run) > 0
	} else {
		u.settle()
		g.shrinkTheta(theta)
		for _, s := range u.snaps {
			g.MergeHashes(s.hashes)
		}
	}
	clear(u.snaps)
	u.snaps = u.snaps[:0]
}

// settle moves a flat run into the hash table, so the union can take
// insertions that may duplicate retained hashes. The run holds fewer than 2k
// distinct hashes below θ, so no rebuild is due.
func (u *Union) settle() {
	if !u.flat {
		return
	}
	u.flat = false
	g := u.gadget
	for _, h := range g.scratch {
		g.insert(h)
	}
}

// entries returns the retained hashes: the flat run, or the table's slots,
// where 0 marks an empty slot. Only read, so concurrent readers are safe.
func (u *Union) entries() []uint64 {
	if u.flat {
		return u.gadget.scratch
	}
	return u.gadget.slots
}

// Estimate returns the estimated cardinality of the union.
func (u *Union) Estimate() float64 {
	if u.flat {
		return estimate(len(u.gadget.scratch), u.gadget.thetaLong, false)
	}
	return u.gadget.Estimate()
}

// Result returns the union as a standalone sketch (a copy).
func (u *Union) Result() *QuickSelect {
	out := NewQuickSelect(u.gadget.lgK, u.gadget.seed)
	out.thetaLong = u.gadget.thetaLong
	for _, h := range u.entries() {
		if h != 0 {
			out.insert(h)
		}
	}
	return out
}

// Reset empties the union accumulator.
func (u *Union) Reset() {
	u.flat = false
	u.gadget.Reset()
}

// SizeBytes estimates the union's resident heap footprint in bytes — the
// memory-budget accounting hook of the sharded layer.
func (u *Union) SizeBytes() int { return u.gadget.SizeBytes() }

// FoldInto folds the receiver's accumulated union into dst without mutating
// the receiver — the retired-state drain hook of the sharded layer's live
// resharding: a legacy Union published by a completed Resize is folded into
// every merged-query accumulator exactly like one more shard snapshot.
//
// Into a dst of the same lgK that holds no entries and whose θ is not below
// the receiver's, the fold copies the receiver's table or flat run verbatim;
// otherwise it shrinks dst's θ and inserts every retained hash. Either way it
// allocates nothing, and concurrent FoldInto calls from many query
// goroutines into their own dst accumulators are safe because the receiver
// is only read.
func (u *Union) FoldInto(dst *Union) {
	src, g := u.gadget, dst.gadget
	if src.seed != g.seed {
		panic("theta: cannot fold unions with different seeds")
	}
	if !dst.flat && g.count == 0 && g.thetaLong >= src.thetaLong && g.lgK == src.lgK {
		g.thetaLong = src.thetaLong
		if u.flat {
			g.scratch = append(g.scratch[:0], src.scratch...)
			dst.flat = true
		} else {
			copy(g.slots, src.slots)
			g.count = src.count
		}
		return
	}
	dst.settle()
	g.shrinkTheta(src.thetaLong)
	for _, h := range u.entries() {
		if h != 0 {
			g.UpdateHash(h)
		}
	}
}

// CompactSketch is an immutable result of a set operation: a list of
// retained hashes below a threshold, in no particular order (a composable's
// published snapshot keeps its hash table's slot order). It supports only
// queries.
type CompactSketch struct {
	thetaLong uint64
	hashes    []uint64
	seed      uint64
}

// Estimate returns retained/θ.
func (c *CompactSketch) Estimate() float64 {
	return estimate(len(c.hashes), c.thetaLong, false)
}

// Retained returns the number of retained hashes.
func (c *CompactSketch) Retained() int { return len(c.hashes) }

// ThetaLong returns the threshold.
func (c *CompactSketch) ThetaLong() uint64 { return c.thetaLong }

// Retention appends the retained hashes to dst.
func (c *CompactSketch) Retention(dst []uint64) []uint64 {
	return append(dst, c.hashes...)
}

// Seed returns the hash seed.
func (c *CompactSketch) Seed() uint64 { return c.seed }

// Intersect estimates the intersection of two Θ sketches: the common
// threshold is min(Θa, Θb) and the retained set is the hash intersection
// below it. The result is exact over the sampled region, giving the standard
// Θ-intersection estimator.
func Intersect(a, b Sketch) *CompactSketch {
	if a.Seed() != b.Seed() {
		panic("theta: cannot intersect sketches with different seeds")
	}
	theta := a.ThetaLong()
	if bt := b.ThetaLong(); bt < theta {
		theta = bt
	}
	aRet := a.Retention(nil)
	inB := make(map[uint64]struct{}, b.Retained())
	for _, h := range b.Retention(nil) {
		if h < theta {
			inB[h] = struct{}{}
		}
	}
	var common []uint64
	for _, h := range aRet {
		if h >= theta {
			continue
		}
		if _, ok := inB[h]; ok {
			common = append(common, h)
		}
	}
	return &CompactSketch{thetaLong: theta, hashes: common, seed: a.Seed()}
}

// AnotB estimates the difference A\B: hashes of A below the common
// threshold that do not appear in B.
func AnotB(a, b Sketch) *CompactSketch {
	if a.Seed() != b.Seed() {
		panic("theta: cannot difference sketches with different seeds")
	}
	theta := a.ThetaLong()
	if bt := b.ThetaLong(); bt < theta {
		theta = bt
	}
	inB := make(map[uint64]struct{}, b.Retained())
	for _, h := range b.Retention(nil) {
		inB[h] = struct{}{}
	}
	var diff []uint64
	for _, h := range a.Retention(nil) {
		if h >= theta {
			continue
		}
		if _, ok := inB[h]; !ok {
			diff = append(diff, h)
		}
	}
	return &CompactSketch{thetaLong: theta, hashes: diff, seed: a.Seed()}
}

// JaccardEstimate estimates the Jaccard similarity |A∩B| / |A∪B| of the two
// streams summarised by a and b.
func JaccardEstimate(a, b Sketch, lgK int) float64 {
	u := NewUnion(lgK, a.Seed())
	u.Add(a)
	u.Add(b)
	union := u.Estimate()
	if union == 0 {
		return 0
	}
	inter := Intersect(a, b).Estimate()
	return inter / union
}

// String renders a short diagnostic description of a sketch.
func String(s Sketch) string {
	return fmt.Sprintf("theta{retained=%d, theta=%.6g, est=%.1f}",
		s.Retained(), ThetaToFraction(s.ThetaLong()), s.Estimate())
}
