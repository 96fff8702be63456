package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"fastsketches/internal/shard"
)

// FuzzFrameDecode throws arbitrary bytes at the full server-side decode
// path — framing, request parsing, and the response/names/info parsers the
// client uses — asserting none of them ever panic and that every accepted
// request re-encodes within protocol bounds. Malformed, truncated and
// oversized frames must come back as errors, never as crashes: this is the
// target CI's fuzz-smoke step drives against the network front-end.
func FuzzFrameDecode(f *testing.F) {
	full := fullSpec()
	f.Add(AppendPing(nil, 1))
	f.Add(AppendNamesReq(nil, 2))
	f.Add(AppendApply(nil, 3, FamilyTheta, "users", &Spec{}))
	f.Add(AppendDrop(nil, 4, FamilyHLL, "x"))
	f.Add(AppendInfo(nil, 5, FamilyCountMin, "api.calls"))
	f.Add(AppendApply(nil, 6, FamilyQuantiles, "lat", &Spec{Shards: 8}))
	f.Add(AppendApply(nil, 7, 0, "users", &full))
	f.Add(AppendBatch(nil, 8, FamilyTheta, "users", []uint64{1, 2, 3}))
	f.Add(AppendBatch(nil, 9, FamilyQuantiles, "lat", []uint64{math.Float64bits(0.5)}))
	f.Add(AppendQuery(nil, 10, FamilyTheta, QueryEstimate, "users", 0))
	f.Add(AppendQuery(nil, 11, FamilyQuantiles, QueryQuantile, "lat", math.Float64bits(0.99)))
	f.Add(AppendOKU64(nil, 12, 99))
	f.Add(AppendOKNames(nil, 13, []string{"theta/users", "hll/x"}))
	f.Add(AppendOKInfo(nil, 14, &Info{Spec: full, Writers: 2, Relaxation: 64, ShardRelaxation: 16, Eager: true}))
	f.Add(AppendError(nil, 15, "boom"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})
	f.Add(AppendApply(nil, 16, 0, "users", &Spec{ViewOff: true, WindowOff: true}))
	f.Add(AppendApply(nil, 17, FamilyCountMin, "w", &Spec{Shards: -1, IdleTTL: -1,
		Window: &shard.WindowConfig{Interval: time.Hour, Slots: 1 << 20, Decay: 1.5}}))
	// The removed OpMergeRemote's reserved opcode.
	f.Add(mergeRemoteFrame(18))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, &buf)
			if err != nil {
				return // framing rejected the rest; that is a valid outcome
			}
			if req, err := ParseRequest(payload); err == nil {
				// Anything the parser accepts must be within protocol
				// bounds: the server indexes items and names directly.
				nameless := req.Op == OpPing || req.Op == OpNames || req.Op == OpCheckpoint || req.Op == OpOpsStats
				if len(req.Name) == 0 && !nameless {
					t.Fatalf("accepted request with empty name: %+v", req)
				}
				if req.NumItems() > MaxBatchItems {
					t.Fatalf("accepted %d items > MaxBatchItems", req.NumItems())
				}
				for i := 0; i < req.NumItems(); i++ {
					_ = req.Item(i)
				}
				// The Spec codec is canonical: an accepted OpApply re-encodes
				// to the very payload it was parsed from.
				if req.Op == OpApply {
					re := AppendApply(nil, req.ID, req.Family, string(req.Name), &req.Spec)
					if !bytes.Equal(re[4:], payload) {
						t.Fatalf("OpApply re-encodes to %x, parsed from %x", re[4:], payload)
					}
				}
			}
			if status, _, body, err := ParseResponse(payload); err == nil && status == StatusOK {
				_, _ = ParseNames(body)
				_, _ = ParseInfo(body)
			}
		}
	})
}

// FuzzSpecDecode throws arbitrary bytes at the Spec codec — the body of an
// OpApply frame and the settings of a checkpoint record — and at Validate:
// decoding never panics, a decoded Spec re-encodes to exactly the bytes it
// came from, and Validate, for every family, either accepts it or wraps
// ErrConfig.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []Spec{{}, fullSpec(), {ViewOff: true, WindowOff: true},
		{Shards: MaxShards + 1, IdleTTL: -time.Second},
		{View: &shard.ViewConfig{RefreshEvery: -1}, ViewOff: true}} {
		f.Add(AppendSpec(nil, &s))
	}
	// The removed autoscale plane's reserved bits, each alone.
	for _, bit := range []uint{2, 5} {
		b := AppendSpec(nil, &Spec{})
		b[0] = 1 << bit
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := ParseSpec(data)
		if err != nil {
			return
		}
		if re := AppendSpec(nil, &s); !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("Spec re-encodes to %x, parsed from %x", re, data[:len(data)-len(rest)])
		}
		for fam := Family(0); fam < familyMax; fam++ {
			if err := s.Validate(fam); err != nil && !errors.Is(err, ErrConfig) {
				t.Fatalf("Validate(%s) = %v, not an ErrConfig", fam, err)
			}
		}
	})
}
