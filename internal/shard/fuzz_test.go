package shard_test

// Fuzzed merge-into equivalence: arbitrary key streams (duplicates, skew,
// any byte pattern) through arbitrary shard counts must leave the pooled,
// fresh-accumulator and reused-accumulator query paths in exact agreement
// after Close — for Θ also with the union invariant (exactly the stream's
// hashes below θ are retained, so exact mode counts every distinct key), and
// for Count-Min with per-key exactness of path agreement.

import (
	"encoding/binary"
	"testing"

	"fastsketches/internal/murmur"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
)

// fuzzKeys derives a key stream from raw fuzz bytes: one key per 2-byte
// window, so small inputs still produce collisions and duplicates.
func fuzzKeys(data []byte) []uint64 {
	if len(data) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(data))
	for i := 0; i+2 <= len(data); i += 2 {
		keys = append(keys, uint64(binary.LittleEndian.Uint16(data[i:])))
	}
	if len(data)%2 == 1 {
		keys = append(keys, uint64(data[len(data)-1]))
	}
	return keys
}

func FuzzMergeIntoEquivalence(f *testing.F) {
	f.Add([]byte("hello sharded sketches"), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0}, uint8(1))
	f.Add([]byte{255, 255, 17, 3, 9, 200, 42, 42, 42, 42}, uint8(7))
	// 600 distinct keys over 4 shards: every shard's table passes 2k = 64
	// retained, so the shards and the merged fold both run the selection.
	long := make([]byte, 0, 1200)
	for k := 0; k < 600; k++ {
		long = binary.LittleEndian.AppendUint16(long, uint16(k*97))
	}
	f.Add(long, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shardByte uint8) {
		keys := fuzzKeys(data)
		if len(keys) == 0 {
			t.Skip()
		}
		if len(keys) > 1000 {
			keys = keys[:1000]
		}
		S := 1 + int(shardByte)%4
		cfg := shard.Config{Shards: S, MaxError: 1}

		// Θ at lgK=5: a short stream stays in exact mode, a longer one drives
		// the shards and the merged fold past 2k = 64 retained.
		th, err := shard.NewTheta(5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := shard.NewCountMin(0.05, 0.1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[uint64]int, len(keys))
		for _, k := range keys {
			th.Update(0, k)
			cm.Update(0, k)
			distinct[k]++
		}
		th.Close()
		cm.Close()

		// The union retains exactly the stream's hashes below its θ.
		merged := th.Merged()
		hashes := make(map[uint64]bool, len(distinct))
		below := 0
		for k := range distinct {
			h := theta.HashKey(k, murmur.DefaultSeed)
			hashes[h] = true
			if h < merged.ThetaLong() {
				below++
			}
		}
		if merged.Retained() != below {
			t.Fatalf("theta union retains %d hashes, the stream has %d below θ", merged.Retained(), below)
		}
		for _, h := range merged.Retention(nil) {
			if !hashes[h] || h >= merged.ThetaLong() {
				t.Fatalf("theta union retains %#x: not a stream hash below θ", h)
			}
		}
		want := merged.Estimate()
		if merged.ThetaLong() == theta.MaxTheta && want != float64(len(distinct)) {
			t.Fatalf("exact-mode theta estimate %v, want %d distinct", want, len(distinct))
		}

		thReused := th.NewAccumulator()
		cmReused := cm.NewAccumulator()
		for q := 0; q < 3; q++ {
			thFresh := th.NewAccumulator()
			th.MergeInto(thFresh)
			th.QueryInto(thReused)
			if got := th.Estimate(); got != want || thFresh.Estimate() != want || thReused.Estimate() != want {
				t.Fatalf("theta query %d: pooled %v, fresh %v, reused %v, want %v",
					q, got, thFresh.Estimate(), thReused.Estimate(), want)
			}

			cmFresh := cm.Merged()
			cm.QueryInto(cmReused)
			if cmFresh.N() != uint64(len(keys)) || cmReused.N() != uint64(len(keys)) {
				t.Fatalf("countmin query %d: fresh N %d, reused N %d, want %d",
					q, cmFresh.N(), cmReused.N(), len(keys))
			}
			probe := keys[q%len(keys)]
			if cmFresh.Estimate(probe) != cmReused.Estimate(probe) {
				t.Fatalf("countmin key %d: fresh %d != reused %d",
					probe, cmFresh.Estimate(probe), cmReused.Estimate(probe))
			}
			if cmReused.Estimate(probe) < uint64(distinct[probe]) {
				t.Fatalf("countmin key %d: merged estimate %d underestimates true %d",
					probe, cmReused.Estimate(probe), distinct[probe])
			}
		}
	})
}

// FuzzResizeEquivalence drives live resharding at arbitrary points of
// arbitrary streams: the fuzzer picks the initial shard count, two resize
// target counts and the stream positions where the resizes happen. However
// the epoch swaps interleave with the stream, the drained state must stay
// lossless — the exact-mode Θ estimate equals the true distinct count, the
// Count-Min totals and reference per-key aggregates are exact, and the
// pooled/fresh/reused query paths agree.
func FuzzResizeEquivalence(f *testing.F) {
	f.Add([]byte("resize me under fire"), uint8(2), uint8(6), uint8(1), uint16(5), uint16(11))
	f.Add([]byte{9, 9, 9, 9, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(1), uint8(8), uint8(3), uint16(0), uint16(3))
	f.Add([]byte{255, 0, 255, 0, 42}, uint8(4), uint8(4), uint8(2), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, s0, s1, s2 uint8, cut1, cut2 uint16) {
		keys := fuzzKeys(data)
		if len(keys) == 0 {
			t.Skip()
		}
		if len(keys) > 1000 {
			keys = keys[:1000]
		}
		S0 := 1 + int(s0)%6
		resizes := map[int]int{ // stream position → new shard count
			int(cut1) % len(keys): 1 + int(s1)%6,
			int(cut2) % len(keys): 1 + int(s2)%6,
		}
		th, err := shard.NewTheta(10, shard.Config{Shards: S0, MaxError: 1})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := shard.NewCountMin(0.05, 0.1, shard.Config{Shards: S0, MaxError: 1})
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[uint64]int, len(keys))
		for i, k := range keys {
			if S, ok := resizes[i]; ok {
				if err := th.Resize(S); err != nil {
					t.Fatal(err)
				}
				if err := cm.Resize(S); err != nil {
					t.Fatal(err)
				}
			}
			th.Update(0, k)
			cm.Update(0, k)
			distinct[k]++
		}
		th.Close()
		cm.Close()

		want := float64(len(distinct))
		thReused := th.NewAccumulator()
		th.QueryInto(thReused)
		thFresh := th.NewAccumulator()
		th.MergeInto(thFresh)
		if got := th.Estimate(); got != want || thFresh.Estimate() != want || thReused.Estimate() != want {
			t.Fatalf("theta after resizes: pooled %v, fresh %v, reused %v, want %v",
				got, thFresh.Estimate(), thReused.Estimate(), want)
		}
		if got := cm.N(); got != uint64(len(keys)) {
			t.Fatalf("countmin N after resizes = %d, want %d", got, len(keys))
		}
		cmMerged := cm.Merged()
		for k, n := range distinct {
			if got := cm.Estimate(k); got < uint64(n) {
				t.Fatalf("countmin key %d: estimate %d underestimates true %d", k, got, n)
			} else if agg := cmMerged.Estimate(k); got > agg {
				t.Fatalf("countmin key %d: estimate %d exceeds aggregate %d", k, got, agg)
			}
		}
	})
}
