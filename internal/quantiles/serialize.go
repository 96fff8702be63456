package quantiles

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Binary serialization for quantiles sketches, enabling the distributed
// merge workflow (summaries shipped from mappers to a reducer) that
// motivates mergeable summaries in the first place.
//
// Layout (little-endian):
//
//	magic     uint32
//	version   uint8
//	_         uint8 (reserved)
//	k         uint16
//	n         uint64
//	min, max  float64 (only meaningful when n > 0)
//	baseLen   uint32
//	levelBits uint64 (bit i set ⇔ level i present)
//	base      baseLen × float64
//	levels    (popcount(levelBits)) × k × float64, ascending level order
const (
	qMagic   uint32 = 0x51554e54 // "QUNT"
	qVersion byte   = 1
)

// ErrCorrupt is returned when deserialisation fails validation.
var ErrCorrupt = errors.New("quantiles: corrupt serialized sketch")

// MarshalBinary serialises the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var levelBits uint64
	levels := 0
	for i, lv := range s.lvls {
		if lv != nil {
			if i >= 64 {
				return nil, fmt.Errorf("quantiles: level %d out of serialisable range", i)
			}
			levelBits |= 1 << uint(i)
			levels++
		}
	}
	size := 4 + 1 + 1 + 2 + 8 + 16 + 4 + 8 + 8*len(s.base) + 8*levels*s.k
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:], qMagic)
	buf[4] = qVersion
	binary.LittleEndian.PutUint16(buf[6:], uint16(s.k))
	binary.LittleEndian.PutUint64(buf[8:], s.n)
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(s.min))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(s.max))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(s.base)))
	binary.LittleEndian.PutUint64(buf[36:], levelBits)
	off := 44
	for _, v := range s.base {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for _, lv := range s.lvls {
		if lv == nil {
			continue
		}
		for _, v := range lv {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf, nil
}

// Unmarshal reconstructs a sketch from its serialised form. The restored
// sketch uses the provided BitSource for future compactions (nil for a
// default).
func Unmarshal(data []byte, bits BitSource) (*Sketch, error) {
	if len(data) < 44 {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:]) != qMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != qVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[4])
	}
	k := int(binary.LittleEndian.Uint16(data[6:]))
	if k < 2 {
		return nil, fmt.Errorf("%w: invalid k %d", ErrCorrupt, k)
	}
	n := binary.LittleEndian.Uint64(data[8:])
	minV := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	maxV := math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
	baseLen := int(binary.LittleEndian.Uint32(data[32:]))
	if baseLen >= 2*k {
		return nil, fmt.Errorf("%w: base buffer length %d ≥ 2k", ErrCorrupt, baseLen)
	}
	levelBits := binary.LittleEndian.Uint64(data[36:])
	levels := 0
	for b := levelBits; b != 0; b >>= 1 {
		levels += int(b & 1)
	}
	want := 44 + 8*baseLen + 8*levels*k
	if len(data) != want {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(data), want)
	}

	s := New(k, bits)
	s.n = n
	s.min = minV
	s.max = maxV
	off := 44
	for i := 0; i < baseLen; i++ {
		s.base = append(s.base, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
		off += 8
	}
	var total uint64 = uint64(baseLen)
	for lvl := 0; levelBits>>uint(lvl) != 0; lvl++ {
		for len(s.lvls) <= lvl {
			s.lvls = append(s.lvls, nil)
		}
		if levelBits&(1<<uint(lvl)) == 0 {
			continue
		}
		lv := make([]float64, k)
		for i := 0; i < k; i++ {
			lv[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		if !sort.Float64sAreSorted(lv) {
			return nil, fmt.Errorf("%w: level %d not sorted", ErrCorrupt, lvl)
		}
		s.lvls[lvl] = lv
		total += uint64(k) << uint(lvl+1)
	}
	s.gen++
	if total != n {
		return nil, fmt.Errorf("%w: retained weight %d does not match n %d", ErrCorrupt, total, n)
	}
	if n > 0 && (math.IsNaN(minV) || math.IsNaN(maxV) || minV > maxV) {
		return nil, fmt.Errorf("%w: bad min/max", ErrCorrupt)
	}
	// Queries answer with retained items, so each must lie in [min, max].
	for _, run := range append([][]float64{s.base}, s.lvls...) {
		for _, v := range run {
			if !(minV <= v && v <= maxV) {
				return nil, fmt.Errorf("%w: retained item %v outside [min, max]", ErrCorrupt, v)
			}
		}
	}
	return s, nil
}
