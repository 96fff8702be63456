package shard

import (
	"testing"

	"fastsketches/internal/theta"
)

// TestFoldKeepsEpochGroupsApart builds an epoch in transition whose
// draining and current shards hold the same keys — as they do when keys
// recur across a Resize — in exact mode. Routing makes each epoch's shards
// disjoint, but not the two epochs together, so every fold of the open
// state must count each key once. Folding both epochs as one disjoint group
// double-counts, and the fixture checks that it would catch that.
func TestFoldKeepsEpochGroupsApart(t *testing.T) {
	const n = 1000 // < k per shard and 2n < 2k in the union (lgK=10): exact
	old, err := NewTheta(10, Config{Shards: 2, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewTheta(10, Config{Shards: 3, MaxError: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		old.Update(0, uint64(i))
		cur.Update(0, uint64(i))
	}
	old.Close()
	cur.Close()
	st := *cur.st.Load()
	st.old = old.st.Load()
	st.win = &epochWindow[*theta.Union]{}

	acc := cur.NewAccumulator()
	mergeEpoch(&st, acc)
	if got := acc.Estimate(); got != n {
		t.Errorf("merged fold across a draining epoch: estimate %v, want %d", got, n)
	}
	acc.Reset()
	windowMergeEpoch(&st, acc)
	if got := acc.Estimate(); got != n {
		t.Errorf("windowed fold across a draining epoch: estimate %v, want %d", got, n)
	}

	acc.Reset()
	acc.FoldShards(append(append([]*theta.Composable(nil), st.old.comps...), st.comps...))
	if got := acc.Estimate(); got != 2*n {
		t.Fatalf("one disjoint group over both epochs gave %v, want the double count %d: the fixture no longer tells the groups apart", got, 2*n)
	}
}
