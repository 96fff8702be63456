package theta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary serialization for Θ sketches, so summaries can be shipped between
// processes and merged elsewhere — the distributed use-case (PowerDrill,
// Druid) that motivates sketch mergeability in the first place.
//
// Layout (little-endian):
//
//	magic    uint32  = 0x7E7A5KE7 stand-in (see serialMagic)
//	version  uint8   = 1
//	variant  uint8   (2 = QuickSelect, 3 = Compact; 1 is reserved)
//	lgK      uint16  (lgK for QuickSelect, 0 for Compact)
//	seed     uint64
//	theta    uint64
//	count    uint32
//	hashes   count × uint64
const (
	serialMagic   uint32 = 0x7E7A17E7
	serialVersion byte   = 1

	// Variant 1 was a K-Minimum-Values sketch; it is reserved and rejected
	// like any unknown variant.
	variantQuickSelect byte = 2
	variantCompact     byte = 3
)

// ErrCorrupt is returned when deserialisation fails structural validation.
var ErrCorrupt = errors.New("theta: corrupt serialized sketch")

const headerSize = 4 + 1 + 1 + 2 + 8 + 8 + 4

func marshal(variant byte, lgK int, seed, theta uint64, hashes []uint64) []byte {
	buf := make([]byte, headerSize+8*len(hashes))
	binary.LittleEndian.PutUint32(buf[0:], serialMagic)
	buf[4] = serialVersion
	buf[5] = variant
	binary.LittleEndian.PutUint16(buf[6:], uint16(lgK))
	binary.LittleEndian.PutUint64(buf[8:], seed)
	binary.LittleEndian.PutUint64(buf[16:], theta)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(hashes)))
	for i, h := range hashes {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], h)
	}
	return buf
}

type header struct {
	variant byte
	lgK     int
	seed    uint64
	theta   uint64
	hashes  []uint64
}

func unmarshal(data []byte) (*header, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != serialMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != serialVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[4])
	}
	count := int(binary.LittleEndian.Uint32(data[24:]))
	if len(data) != headerSize+8*count {
		return nil, fmt.Errorf("%w: length %d does not match count %d", ErrCorrupt, len(data), count)
	}
	h := &header{
		variant: data[5],
		lgK:     int(binary.LittleEndian.Uint16(data[6:])),
		seed:    binary.LittleEndian.Uint64(data[8:]),
		theta:   binary.LittleEndian.Uint64(data[16:]),
	}
	h.hashes = make([]uint64, count)
	for i := range h.hashes {
		h.hashes[i] = binary.LittleEndian.Uint64(data[headerSize+8*i:])
		// Retained hashes must be non-zero and below Θ: no sketch keeps a
		// hash at or above its threshold.
		if h.hashes[i] == 0 || h.hashes[i] >= h.theta {
			return nil, fmt.Errorf("%w: retained hash out of range", ErrCorrupt)
		}
	}
	return h, nil
}

// MarshalBinary serialises a QuickSelect sketch.
func (s *QuickSelect) MarshalBinary() ([]byte, error) {
	return marshal(variantQuickSelect, s.lgK, s.seed, s.thetaLong, s.Retention(nil)), nil
}

// UnmarshalQuickSelect reconstructs a QuickSelect sketch.
func UnmarshalQuickSelect(data []byte) (*QuickSelect, error) {
	h, err := unmarshal(data)
	if err != nil {
		return nil, err
	}
	if h.variant != variantQuickSelect {
		return nil, fmt.Errorf("%w: not a QuickSelect sketch (variant %d)", ErrCorrupt, h.variant)
	}
	if h.lgK < 2 || h.lgK > 26 {
		return nil, fmt.Errorf("%w: invalid lgK %d", ErrCorrupt, h.lgK)
	}
	s := NewQuickSelect(h.lgK, h.seed)
	s.thetaLong = h.theta
	for _, v := range h.hashes {
		s.insert(v)
	}
	return s, nil
}

// MarshalBinary serialises a compact sketch.
func (c *CompactSketch) MarshalBinary() ([]byte, error) {
	return marshal(variantCompact, 0, c.seed, c.thetaLong, c.hashes), nil
}

// UnmarshalCompact reconstructs a compact sketch.
func UnmarshalCompact(data []byte) (*CompactSketch, error) {
	h, err := unmarshal(data)
	if err != nil {
		return nil, err
	}
	if h.variant != variantCompact {
		return nil, fmt.Errorf("%w: not a compact sketch (variant %d)", ErrCorrupt, h.variant)
	}
	return &CompactSketch{thetaLong: h.theta, hashes: h.hashes, seed: h.seed}, nil
}
