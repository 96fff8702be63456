package theta

import (
	"testing"
)

// Fuzz targets for the binary decoders: deserialising untrusted bytes must
// never panic, and anything that round-trips must be stable. Run with
// `go test -fuzz=FuzzUnmarshal` for continuous fuzzing; the seed corpus
// runs as part of the normal test suite.

func FuzzUnmarshalQuickSelect(f *testing.F) {
	good := NewQuickSelect(6, 9001)
	for i := 0; i < 5000; i++ {
		good.Update(uint64(i))
	}
	data, _ := good.MarshalBinary()
	f.Add(data)
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalQuickSelect(b)
		if err != nil {
			return
		}
		if s.Retained() < 0 || s.Estimate() < 0 {
			t.Fatal("decoded sketch in nonsense state")
		}
		// The decoded sketch must keep functioning.
		s.Update(12345)
		_ = s.Estimate()
	})
}

func FuzzUnmarshalCompact(f *testing.F) {
	a := NewQuickSelect(6, 9001)
	b := NewQuickSelect(6, 9001)
	for i := 0; i < 3000; i++ {
		a.Update(uint64(i))
		b.Update(uint64(i + 1500))
	}
	data, _ := Intersect(a, b).MarshalBinary()
	f.Add(data)
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := UnmarshalCompact(raw)
		if err != nil {
			return
		}
		if c.Estimate() < 0 {
			t.Fatal("negative estimate from decoded compact sketch")
		}
	})
}
