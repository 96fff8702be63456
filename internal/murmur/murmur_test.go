package murmur

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	h1a, h2a := Sum128(data, DefaultSeed)
	h1b, h2b := Sum128(data, DefaultSeed)
	if h1a != h1b || h2a != h2b {
		t.Fatalf("hash not deterministic: (%x,%x) vs (%x,%x)", h1a, h2a, h1b, h2b)
	}
}

func TestSeedSensitivity(t *testing.T) {
	data := []byte("abcdefgh")
	h1a, _ := Sum128(data, 1)
	h1b, _ := Sum128(data, 2)
	if h1a == h1b {
		t.Fatalf("different seeds produced identical hashes: %x", h1a)
	}
}

func TestAllTailLengths(t *testing.T) {
	// Exercise every switch arm: lengths 0..48 cover 0,1,2 blocks plus all
	// 15 tail cases. Verify that extending the input changes the hash.
	buf := make([]byte, 49)
	for i := range buf {
		buf[i] = byte(i*37 + 11)
	}
	seen := make(map[uint64]int)
	for n := 0; n <= 48; n++ {
		h, _ := Sum128(buf[:n], DefaultSeed)
		if prev, dup := seen[h]; dup {
			t.Fatalf("lengths %d and %d collide: %x", prev, n, h)
		}
		seen[h] = n
	}
}

func TestSingleBitAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}
	h0, _ := Sum128(base, DefaultSeed)
	totalFlips := 0
	n := 0
	for byteIdx := range base {
		for bit := 0; bit < 8; bit++ {
			mod := make([]byte, len(base))
			copy(mod, base)
			mod[byteIdx] ^= 1 << bit
			h1, _ := Sum128(mod, DefaultSeed)
			diff := h0 ^ h1
			flips := 0
			for diff != 0 {
				flips += int(diff & 1)
				diff >>= 1
			}
			totalFlips += flips
			n++
		}
	}
	avg := float64(totalFlips) / float64(n)
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: average %.1f of 64 bits flipped", avg)
	}
}

func TestHashUint64MatchesBytes(t *testing.T) {
	f := func(key uint64) bool {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(key >> (8 * i))
		}
		return HashUint64(key, DefaultSeed) == Hash64(buf[:], DefaultSeed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitHashUniformity(t *testing.T) {
	// Hash a consecutive integer stream and check the empirical mean and
	// bucket counts look uniform: the top 53 bits, read as a fraction of
	// 2^53, are a U[0,1) sample, and the top 4 bits pick one of 16 buckets.
	// With n=200000 the mean of U[0,1) samples has σ ≈ 0.00065, so ±0.005
	// is a >7σ tolerance.
	const n = 200000
	const buckets = 16
	var sum float64
	counts := make([]int, buckets)
	for i := uint64(0); i < n; i++ {
		h := HashUint64(i, DefaultSeed)
		sum += float64(h>>11) / (1 << 53)
		counts[h>>60]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of unit hashes = %v, want ~0.5", mean)
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", b, c, want)
		}
	}
}

func TestStringAndBytesAgree(t *testing.T) {
	s := "concurrent sketches"
	if HashString(s, DefaultSeed) != Hash64([]byte(s), DefaultSeed) {
		t.Fatal("HashString disagrees with Hash64 on identical content")
	}
}

func BenchmarkHashUint64(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= HashUint64(uint64(i), DefaultSeed)
	}
	_ = sink
}

func BenchmarkSum128_64B(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		Sum128(data, DefaultSeed)
	}
}
