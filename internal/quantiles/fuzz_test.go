package quantiles

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzImportFrom feeds untrusted bytes to Accumulator.ImportFrom, the
// decoder of every Quantiles checkpoint record and served restore. It must
// never panic; a rejected body fails with a typed error and leaves the
// receiver's summary as it was; an accepted body, imported into a fresh
// accumulator, re-exports a body that a second fresh accumulator imports to
// the same bytes.
func FuzzImportFrom(f *testing.F) {
	// A small seed keeps the engine's input minimisation quick; k = 4 over
	// 100 values still leaves weights of 1 to 16 in the summary.
	c := NewComposable(4, NewRandomBits(1))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	c.MergeBuffer(vals)
	src := NewAccumulator()
	c.SnapshotMergeInto(src)
	valid := src.ExportTo(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		a := NewAccumulator()
		if err := a.ImportFrom(valid); err != nil {
			t.Fatal(err)
		}
		before := a.ExportTo(nil)
		if err := a.ImportFrom(b); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			if !bytes.Equal(a.ExportTo(nil), before) {
				t.Fatal("rejected import changed the receiver")
			}
			return
		}
		first := importFresh(t, b)
		if again := importFresh(t, first); !bytes.Equal(again, first) {
			t.Fatalf("re-import changed the state:\n%x\n%x", first, again)
		}
	})
}

// importFresh imports body into a fresh accumulator and returns its export.
func importFresh(t *testing.T, body []byte) []byte {
	t.Helper()
	a := NewAccumulator()
	if err := a.ImportFrom(body); err != nil {
		t.Fatalf("fresh import: %v", err)
	}
	return a.ExportTo(nil)
}
