package countmin

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzImportFrom feeds untrusted bytes to Sketch.ImportFrom, the decoder of
// every Count-Min checkpoint record and served restore. It must never panic;
// a rejected body fails with a typed error and leaves the receiver's
// counters as they were; an accepted body, imported into a fresh sketch,
// re-exports a body that a second fresh sketch imports to the same bytes.
func FuzzImportFrom(f *testing.F) {
	src := New(8, 2, testSeed)
	for i := uint64(0); i < 1000; i++ {
		src.Update(i % 37)
	}
	valid := src.ExportTo(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		s := New(8, 2, testSeed)
		if err := s.ImportFrom(valid); err != nil {
			t.Fatal(err)
		}
		before := s.ExportTo(nil)
		if err := s.ImportFrom(b); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			if !bytes.Equal(s.ExportTo(nil), before) {
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

// importFresh imports body into a fresh sketch and returns its export.
func importFresh(t *testing.T, body []byte) []byte {
	t.Helper()
	s := New(8, 2, testSeed)
	if err := s.ImportFrom(body); err != nil {
		t.Fatalf("fresh import: %v", err)
	}
	return s.ExportTo(nil)
}
