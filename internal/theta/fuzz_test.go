package theta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// FuzzImportFrom feeds untrusted bytes to Union.ImportFrom, the decoder of
// every Θ checkpoint record, served restore and sketchtool file. It must
// never panic; a rejected body fails with a typed error and leaves the
// receiver's state as it was; an accepted body, imported into a fresh union,
// re-exports a body that a second fresh union imports to the same state.
// Run with `go test -fuzz=^FuzzImportFrom$`; the seed corpus runs as part of
// the normal test suite.
func FuzzImportFrom(f *testing.F) {
	// A small seed keeps the engine's input minimisation quick; 1000 keys
	// at lgK 4 leave the union in sampling mode (Θ < 1).
	sk := NewQuickSelect(4, testSeed)
	for i := uint64(0); i < 1000; i++ {
		sk.Update(i)
	}
	src := NewUnion(4, testSeed)
	src.Add(sk)
	valid := src.ExportTo(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		u := NewUnion(4, testSeed)
		if err := u.ImportFrom(valid); err != nil {
			t.Fatal(err)
		}
		before := u.ExportTo(nil)
		if err := u.ImportFrom(b); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			if !bytes.Equal(u.ExportTo(nil), before) {
				t.Fatal("rejected import changed the receiver")
			}
			return
		}
		first := importFresh(t, b)
		if again := importFresh(t, first); !bytes.Equal(canonical(again), canonical(first)) {
			t.Fatalf("re-import changed the state:\n%x\n%x", first, again)
		}
	})
}

// importFresh imports body into a fresh union and returns its export.
func importFresh(t *testing.T, body []byte) []byte {
	t.Helper()
	u := NewUnion(4, testSeed)
	if err := u.ImportFrom(body); err != nil {
		t.Fatalf("fresh import: %v", err)
	}
	return u.ExportTo(nil)
}

// canonical returns an export body with its hashes sorted. The body lists
// the table's slots in order, and a probe run that wraps past the table's
// end can land in a different order when re-inserted, so two unions holding
// the same state may list their hashes differently.
func canonical(body []byte) []byte {
	hashes := make([]uint64, 0, (len(body)-unionSnapMin)/8)
	for i := unionSnapMin; i < len(body); i += 8 {
		hashes = append(hashes, binary.LittleEndian.Uint64(body[i:]))
	}
	slices.Sort(hashes)
	out := slices.Clone(body[:unionSnapMin])
	for _, h := range hashes {
		out = binary.LittleEndian.AppendUint64(out, h)
	}
	return out
}
