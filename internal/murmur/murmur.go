// Package murmur implements the MurmurHash3 x64-128 hash function.
//
// Apache DataSketches uses MurmurHash3 with a seed to map stream elements to
// 64-bit values that are uniform on the full range; the Θ sketch then treats
// the hash, scaled into [0,1), as the sampled coordinate. This package is a
// from-scratch implementation of the x64-128 variant (Austin Appleby's
// reference algorithm) restricted to the inputs the sketches need: raw byte
// slices, strings, and uint64 keys.
package murmur

import "encoding/binary"

// DefaultSeed is the seed used by Apache DataSketches for its update
// sketches. Using the library default keeps hash-dependent tests and
// cross-checks deterministic.
const DefaultSeed uint64 = 9001

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

func rotl64(x uint64, r uint) uint64 { return (x << r) | (x >> (64 - r)) }

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Sum128 computes the 128-bit MurmurHash3 (x64 variant) of data with the
// given seed, returning the two 64-bit halves.
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	n := len(data)
	nblocks := n / 16

	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint64(data[i*16:])
		k2 := binary.LittleEndian.Uint64(data[i*16+8:])

		k1 *= c1
		k1 = rotl64(k1, 31)
		k1 *= c2
		h1 ^= k1

		h1 = rotl64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2
		k2 = rotl64(k2, 33)
		k2 *= c1
		h2 ^= k2

		h2 = rotl64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	tail := data[nblocks*16:]
	var k1, k2 uint64
	switch len(tail) & 15 {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2
		k2 = rotl64(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1
		k1 = rotl64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// Hash64 returns the first 64-bit half of the 128-bit hash of data.
func Hash64(data []byte, seed uint64) uint64 {
	h1, _ := Sum128(data, seed)
	return h1
}

// HashUint64 hashes a uint64 key. The key is serialised little-endian, the
// same convention DataSketches uses for long updates, so two processes
// hashing the same numeric stream agree on the samples.
func HashUint64(key uint64, seed uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return Hash64(buf[:], seed)
}

// HashString hashes a string key without copying it into a fresh buffer for
// the common short-string case.
func HashString(s string, seed uint64) uint64 {
	return Hash64([]byte(s), seed)
}
