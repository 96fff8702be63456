package quantiles

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Snapshot export/import for quantile Accumulators — the persistence hooks
// of the registry checkpoint plane. ExportTo serialises the accumulated
// merged summary (values with cumulative weights); ImportFrom rebuilds a
// Summary from untrusted bytes, validates every structural invariant the
// query paths rely on (sorted values, strictly increasing cumulative
// weights, weight total matching n), and folds it in through the ordinary
// Merge path.
//
// Body layout (little-endian):
//
//	n      uint64
//	min    uint64 (float64 bits)
//	max    uint64 (float64 bits)
//	count  uint32
//	values count × uint64 (float64 bits, ascending)
//	cum    count × uint64 (float64 bits, strictly increasing, cum[count-1] == n)
const accSnapMin = 8 + 8 + 8 + 4

// ErrCorrupt is returned by ImportFrom when a snapshot fails structural
// validation.
var ErrCorrupt = errors.New("quantiles: corrupt snapshot")

// ErrSnapshotMismatch is the quantiles counterpart of the other families'
// config-mismatch error. The family is parameter-free at merge time (any two
// summaries fold), so nothing currently returns it; it exists so callers can
// treat all four families' snapshot errors uniformly.
var ErrSnapshotMismatch = errors.New("quantiles: snapshot config mismatch")

// ExportTo appends the accumulator's merged summary to dst and returns the
// extended slice. The receiver is only read; with a pre-grown dst the encode
// allocates nothing.
func (a *Accumulator) ExportTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, a.cur.n)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.cur.min))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.cur.max))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.cur.values)))
	for _, v := range a.cur.values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	for _, c := range a.cur.cum {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// ImportFrom folds a snapshot produced by ExportTo into the receiver through
// the ordinary Merge path. Structural violations return ErrCorrupt; on any
// error the receiver is unchanged. An empty snapshot (n == 0) is a no-op.
func (a *Accumulator) ImportFrom(data []byte) error {
	if len(data) < accSnapMin {
		return fmt.Errorf("%w: short quantiles snapshot (%d bytes)", ErrCorrupt, len(data))
	}
	n := binary.LittleEndian.Uint64(data[0:])
	min := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	max := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	count := int(binary.LittleEndian.Uint32(data[24:]))
	if len(data) != accSnapMin+16*count {
		return fmt.Errorf("%w: length %d does not match count %d", ErrCorrupt, len(data), count)
	}
	if n == 0 {
		if count != 0 {
			return fmt.Errorf("%w: %d retained values with n=0", ErrCorrupt, count)
		}
		return nil
	}
	if count == 0 {
		return fmt.Errorf("%w: n=%d with no retained values", ErrCorrupt, n)
	}
	if math.IsNaN(min) || math.IsNaN(max) || min > max {
		return fmt.Errorf("%w: bad min/max", ErrCorrupt)
	}
	values := make([]float64, count)
	cum := make([]float64, count)
	body := data[accSnapMin:]
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	for i := range cum {
		cum[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*(count+i):]))
	}
	prev := math.Inf(-1)
	for i, v := range values {
		if math.IsNaN(v) || v < prev {
			return fmt.Errorf("%w: values not sorted at %d", ErrCorrupt, i)
		}
		prev = v
	}
	prevC := 0.0
	for i, c := range cum {
		if math.IsNaN(c) || c <= prevC {
			return fmt.Errorf("%w: cumulative weights not increasing at %d", ErrCorrupt, i)
		}
		prevC = c
	}
	// The weight total must account for exactly the n items the summary
	// claims, and the exact extrema must bracket the retained values.
	if cum[count-1] != float64(n) {
		return fmt.Errorf("%w: weight total %g does not match n %d", ErrCorrupt, cum[count-1], n)
	}
	if min > values[0] || max < values[count-1] {
		return fmt.Errorf("%w: min/max do not bracket retained values", ErrCorrupt)
	}
	a.Merge(&Summary{values: values, cum: cum, n: n, min: min, max: max})
	return nil
}
