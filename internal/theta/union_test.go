package theta

// The defining property of a correct Θ union, checked on every fold path:
// after any sequence of folds the retained set is exactly
// {h ∈ ∪ inputs : h < θ}, θ is at or below every input's θ, fewer than 2k
// hashes are retained, and the estimate is retained/θ.

import (
	"fmt"
	"math/rand"
	"testing"
)

const unionLgK = 6 // k = 64: small enough that every total below is cheap

// disjointShards publishes a random disjoint partition of total distinct
// hashes over S composables, as routing does within one epoch.
func disjointShards(rng *rand.Rand, S, total int) []*Composable {
	parts := make([][]uint64, S)
	seen := make(map[uint64]bool, total)
	for len(seen) < total {
		h := rng.Uint64()
		if h == 0 || seen[h] {
			continue
		}
		seen[h] = true
		i := rng.Intn(S)
		parts[i] = append(parts[i], h)
	}
	shards := make([]*Composable, S)
	for i, p := range parts {
		c := NewComposable(unionLgK, testSeed)
		c.EnableSnapshots()
		c.MergeBuffer(p)
		shards[i] = c
	}
	return shards
}

// unionInput is one fold input as the invariant sees it: its retained
// hashes and its θ.
type unionInput struct {
	hashes []uint64
	theta  uint64
}

func snapshotInputs(shards []*Composable) []unionInput {
	in := make([]unionInput, len(shards))
	for i, c := range shards {
		s := c.Snapshot()
		in[i] = unionInput{s.hashes, s.thetaLong}
	}
	return in
}

// retainedSet returns u's retained hashes, failing on a duplicate.
func retainedSet(t *testing.T, u *Union) map[uint64]bool {
	t.Helper()
	got := map[uint64]bool{}
	for _, h := range u.entries() {
		if h == 0 {
			continue
		}
		if got[h] {
			t.Fatalf("hash %#x retained twice", h)
		}
		got[h] = true
	}
	return got
}

// checkUnion asserts the union invariant of u over inputs.
func checkUnion(t *testing.T, u *Union, inputs []unionInput) {
	t.Helper()
	theta := u.gadget.thetaLong
	want := map[uint64]bool{}
	for _, in := range inputs {
		if theta > in.theta {
			t.Fatalf("union θ %#x above an input's θ %#x", theta, in.theta)
		}
		for _, h := range in.hashes {
			if h < theta {
				want[h] = true
			}
		}
	}
	got := retainedSet(t, u)
	if len(got) != len(want) {
		t.Fatalf("retained %d hashes, want %d (all inputs below θ)", len(got), len(want))
	}
	for h := range want {
		if !got[h] {
			t.Fatalf("hash %#x below θ missing from the union", h)
		}
	}
	if len(got) >= 2*u.gadget.k {
		t.Fatalf("retained %d ≥ 2k = %d", len(got), 2*u.gadget.k)
	}
	if est := u.Estimate(); est != estimate(len(got), theta, false) {
		t.Fatalf("estimate %v, want retained/θ = %v", est, estimate(len(got), theta, false))
	}
}

// sameUnion asserts that b holds exactly a's θ and retained set.
func sameUnion(t *testing.T, a, b *Union) {
	t.Helper()
	if a.gadget.thetaLong != b.gadget.thetaLong {
		t.Fatalf("θ %#x, want %#x", b.gadget.thetaLong, a.gadget.thetaLong)
	}
	ra, rb := retainedSet(t, a), retainedSet(t, b)
	if len(ra) != len(rb) {
		t.Fatalf("retained %d, want %d", len(rb), len(ra))
	}
	for h := range ra {
		if !rb[h] {
			t.Fatalf("hash %#x lost", h)
		}
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("estimate %v, want %v", b.Estimate(), a.Estimate())
	}
}

func TestUnionInvariant(t *testing.T) {
	k := 1 << unionLgK
	for _, S := range []int{1, 2, 4, 8} {
		for _, total := range []int{k / 2, 3 * k / 2, 40 * k} {
			t.Run(fmt.Sprintf("S%d/total%d", S, total), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(S*100003 + total)))
				shards := disjointShards(rng, S, total)
				inputs := snapshotInputs(shards)

				// FoldShards into an empty union: the flat run.
				flat := NewUnion(unionLgK, testSeed)
				flat.FoldShards(shards)
				checkUnion(t, flat, inputs)
				for _, s := range flat.snaps[:cap(flat.snaps)] {
					if s != nil {
						t.Fatal("FoldShards left a snapshot pinned in its scratch")
					}
				}

				// Exact mode: the same answer as the per-shard AddHashes path.
				ref := NewUnion(unionLgK, testSeed)
				for _, c := range shards {
					c.SnapshotMergeInto(ref)
				}
				if ref.gadget.thetaLong == MaxTheta && flat.Estimate() != ref.Estimate() {
					t.Fatalf("exact mode: FoldShards %v, AddHashes %v", flat.Estimate(), ref.Estimate())
				}
				if ref.gadget.thetaLong == MaxTheta && total < 2*k && flat.Estimate() != float64(total) {
					t.Fatalf("exact mode: estimate %v, want %d", flat.Estimate(), total)
				}

				// The selection runs once the hashes below min θᵢ reach 2k.
				below, minTheta := 0, uint64(MaxTheta)
				for _, in := range inputs {
					minTheta = min(minTheta, in.theta)
				}
				for _, in := range inputs {
					for _, h := range in.hashes {
						if h < minTheta {
							below++
						}
					}
				}
				if selected := flat.gadget.thetaLong < minTheta; selected != (below >= 2*k) {
					t.Fatalf("%d hashes below min θᵢ, selection ran = %v", below, selected)
				}
				if S >= 4 && total >= 2*k && below < 2*k {
					t.Fatalf("fixture: only %d hashes below min θᵢ, so the selection never runs", below)
				}

				// FoldShards into non-empty unions, which may already hold some
				// of the group's hashes: one built by AddHashes (a table), and
				// one holding this very group as a flat run, like an old epoch
				// whose keys the current epoch also holds.
				prior := disjointShards(rng, S, total/2+1)
				table := NewUnion(unionLgK, testSeed)
				table.AddHashes(inputs[0].hashes, MaxTheta)
				for _, c := range prior {
					c.SnapshotMergeInto(table)
				}
				table.FoldShards(shards)
				checkUnion(t, table, append(snapshotInputs(prior), inputs...))
				again := NewUnion(unionLgK, testSeed)
				again.FoldShards(shards)
				again.FoldShards(shards)
				sameUnion(t, flat, again)
				again.FoldShards(prior)
				checkUnion(t, again, append(snapshotInputs(prior), inputs...))

				// FoldInto an empty union copies: flat → empty, table → empty.
				for name, src := range map[string]*Union{"flat": flat, "table": table} {
					dst := NewUnion(unionLgK, testSeed)
					src.FoldInto(dst)
					if dst.flat != src.flat {
						t.Fatalf("%s → empty: flat %v, want %v", name, dst.flat, src.flat)
					}
					sameUnion(t, src, dst)
				}
				// FoldInto a non-empty union inserts.
				dst := NewUnion(unionLgK, testSeed)
				dst.FoldShards(prior)
				flat.FoldInto(dst)
				checkUnion(t, dst, append(snapshotInputs(prior), inputs...))

				// A flat union survives ExportTo → ImportFrom and Result.
				imported := NewUnion(unionLgK, testSeed)
				if err := imported.ImportFrom(flat.ExportTo(nil)); err != nil {
					t.Fatal(err)
				}
				sameUnion(t, flat, imported)
				res := flat.Result()
				if res.ThetaLong() != flat.gadget.thetaLong || res.Estimate() != flat.Estimate() {
					t.Fatalf("Result θ %#x est %v, want θ %#x est %v",
						res.ThetaLong(), res.Estimate(), flat.gadget.thetaLong, flat.Estimate())
				}
				checkUnion(t, &Union{gadget: res}, inputs)

				// Reset empties a flat union, and the next fold starts afresh.
				flat.Reset()
				if flat.Estimate() != 0 || flat.flat || flat.gadget.thetaLong != MaxTheta {
					t.Fatalf("Reset left estimate %v, flat %v", flat.Estimate(), flat.flat)
				}
				flat.FoldShards(shards)
				checkUnion(t, flat, inputs)
			})
		}
	}
}
