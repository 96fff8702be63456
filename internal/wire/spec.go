package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"fastsketches/internal/shard"
	"fastsketches/internal/window"
)

// Spec declares a sketch's configuration in one place — shard count,
// window, view and lifecycle — and is the one form it takes everywhere:
// fastsketches.Spec is this type, Open* and OpApply apply it, Info and
// OpInfo report the Spec in force, and a checkpoint record stores it beside
// the sketch's blobs. AppendSpec and ParseSpec are its only
// codec, Validate its only check. A Spec is declarative: applying one
// changes only what it declares, so the zero Spec declares nothing and a
// nil plane is left untouched.
type Spec struct {
	// Shards is the declared shard count S; 0 leaves S as it is. A positive
	// value live-resizes the sketch whenever it differs, like Handle.Resize.
	Shards int
	// Window declares a sliding window (and, for Count-Min, exponential time
	// decay) beside the cumulative plane. An equal declaration keeps the
	// running ring; a different one collapses the old window into the
	// cumulative plane (no count lost) and arms a fresh one.
	Window *window.Config
	// View (re-)materializes the merged view: merged queries then fold one
	// published accumulator at staleness S·r plus one refresh interval.
	View *shard.ViewConfig
	// ViewOff and WindowOff switch a plane off: the refresher stops, the
	// window collapses into the cumulative plane. Off is a no-op on a plane
	// that is off; declaring a plane and switching it off in one Spec is an
	// error.
	ViewOff, WindowOff bool
	// IdleTTL, when positive, overrides the ops sweeper's default idle TTL;
	// Pinned exempts the sketch from idle eviction and budget shedding. The
	// two are declared together: a Spec setting either replaces both, one
	// setting neither leaves both as they are.
	IdleTTL time.Duration
	Pinned  bool
}

// Decayable reports whether the family's accumulator has linearly scalable
// counters — whether a window on it may carry a decay plane. Of the four
// families only Count-Min does.
func (f Family) Decayable() bool { return f == FamilyCountMin }

// Validate checks s for a sketch of family fam. It is the one check every
// Spec passes before it reaches a sketch, whether it came through Open*, an
// OpApply frame or a checkpoint record, so a rejected Spec creates nothing.
// fam 0 stands for every family under a name: a window Decay is then
// accepted, and dropped later from the families that cannot decay.
// Failures wrap ErrConfig.
func (s *Spec) Validate(fam Family) error {
	switch {
	case s.Shards < 0 || s.Shards > MaxShards:
		return fmt.Errorf("%w: Spec.Shards %d outside [0,%d]", ErrConfig, s.Shards, MaxShards)
	case s.IdleTTL < 0:
		return fmt.Errorf("%w: negative Spec.IdleTTL %v", ErrConfig, s.IdleTTL)
	case s.View != nil && s.ViewOff, s.Window != nil && s.WindowOff:
		return fmt.Errorf("%w: a Spec plane is both declared and switched off", ErrConfig)
	case s.View != nil && s.View.RefreshEvery < 0:
		return fmt.Errorf("%w: negative view refresh interval %v", ErrConfig, s.View.RefreshEvery)
	}
	if w := s.Window; w != nil {
		if w.Interval < 0 {
			return fmt.Errorf("%w: negative window interval %v", ErrConfig, w.Interval)
		}
		if _, err := w.Normalise(); err != nil {
			return fmt.Errorf("%w: %w", ErrConfig, err)
		}
		if w.Decay != 0 && fam != 0 && !fam.Decayable() {
			return fmt.Errorf("%w: window decay needs linearly scalable counters, which %s lacks", ErrConfig, fam)
		}
	}
	return nil
}

// The flag bits opening an encoded Spec. Bits 2 and 5 were the autoscale
// plane and its off switch; they stay reserved, so pinned keeps bit 6.
const (
	specWindow = 1 << iota
	specView
	specAutoscale // reserved: rejected with ErrRemovedAutoscale
	specWindowOff
	specViewOff
	specAutoscaleOff // reserved: rejected with ErrRemovedAutoscale
	specPinned
	specFlags = 1<<iota - 1
)

// MaxSpecLen bounds an encoded Spec: flags, fixed words, every plane's words.
const MaxSpecLen = 1 + 8*(2+3+2)

// AppendSpec appends s's encoding to dst. Every field travels except the
// planes' Clocks, which are process-local pacing machinery:
//
//	flags    uint8     bit 0 window, 1 view, 3 window off, 4 view off,
//	                   6 pinned; 2 and 5 reserved
//	shards, idleTTL    int64 LE each (nanoseconds for durations)
//	window   interval, slots, decay                      if bit 0
//	view     refreshEvery, maxAge                        if bit 1
//
// Every number is one 8-byte little-endian word: integers and durations as
// int64, floats as IEEE-754 bits. Out-of-range values encode faithfully, so
// the receiver's Validate rejects exactly what the sender's would.
func AppendSpec(dst []byte, s *Spec) []byte {
	var flags byte
	for i, on := range [...]bool{s.Window != nil, s.View != nil, false,
		s.WindowOff, s.ViewOff, false, s.Pinned} {
		if on {
			flags |= 1 << i
		}
	}
	dst = appendWords(append(dst, flags), int64(s.Shards), int64(s.IdleTTL))
	if w := s.Window; w != nil {
		dst = appendWords(dst, int64(w.Interval), int64(w.Slots), floatWord(w.Decay))
	}
	if v := s.View; v != nil {
		dst = appendWords(dst, int64(v.RefreshEvery), int64(v.MaxAge))
	}
	return dst
}

func appendWords(dst []byte, words ...int64) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w))
	}
	return dst
}

func floatWord(f float64) int64 { return int64(math.Float64bits(f)) }

// ParseSpec decodes one Spec from the front of b (see AppendSpec) and
// returns the bytes after it. It checks structure only — truncation, unknown
// flags and the reserved autoscale bits (ErrRemovedAutoscale); Validate
// judges the values. Decoded planes carry no Clock (the system clock).
func ParseSpec(b []byte) (Spec, []byte, error) {
	c := cursor{b: b}
	flags := c.u8()
	if c.err == nil && flags&^specFlags != 0 {
		return Spec{}, nil, ErrBadSpec
	}
	if flags&(specAutoscale|specAutoscaleOff) != 0 {
		return Spec{}, nil, ErrRemovedAutoscale
	}
	word := func() int64 { return int64(c.u64()) }
	float := func() float64 { return math.Float64frombits(c.u64()) }
	s := Spec{
		Shards: int(word()), IdleTTL: time.Duration(word()),
		WindowOff: flags&specWindowOff != 0, ViewOff: flags&specViewOff != 0,
		Pinned: flags&specPinned != 0,
	}
	if flags&specWindow != 0 {
		s.Window = &window.Config{Interval: time.Duration(word()), Slots: int(word()), Decay: float()}
	}
	if flags&specView != 0 {
		s.View = &shard.ViewConfig{RefreshEvery: time.Duration(word()), MaxAge: time.Duration(word())}
	}
	if c.err != nil {
		return Spec{}, nil, c.err
	}
	return s, c.b, nil
}
