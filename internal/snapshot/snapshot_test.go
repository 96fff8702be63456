package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"fastsketches/internal/countmin"
	"fastsketches/internal/hll"
	"fastsketches/internal/murmur"
	"fastsketches/internal/quantiles"
	"fastsketches/internal/shard"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

func fullRecord() Record {
	return Record{
		Family: wire.FamilyCountMin,
		Name:   []byte("metrics/api.requests"),
		Spec: wire.Spec{
			Shards:  12,
			View:    &shard.ViewConfig{RefreshEvery: 50 * time.Millisecond, MaxAge: -1},
			IdleTTL: time.Hour,
			Pinned:  true,
		},
		Blob: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
}

func windowedRecord() Record {
	rec := fullRecord()
	rec.Spec.Window = &shard.WindowConfig{Interval: 30 * time.Second, Slots: 4, Decay: 0.75}
	rec.WindowSlotBlobs = [][]byte{{10, 11}, {}, {12, 13, 14}}
	rec.WindowDecayedBlob = []byte{20, 21, 22, 23}
	return rec
}

// v1Header is AppendHeader with the retired format version 1, which no
// build reads any more.
func v1Header(count int) []byte {
	b := AppendHeader(nil, count)
	binary.LittleEndian.PutUint16(b[4:], 1)
	return b
}

// portable is a complete portable record: BeginPortable, the blob, EndRecord.
func portable(rec *Record) []byte {
	b, m := BeginPortable(nil, rec)
	return EndRecord(append(b, rec.Blob...), m)
}

// sameRecord compares two records field by field, blobs by content.
func sameRecord(t *testing.T, got, want Record) {
	t.Helper()
	if got.Family != want.Family || !bytes.Equal(got.Name, want.Name) || !reflect.DeepEqual(got.Spec, want.Spec) ||
		!bytes.Equal(got.Blob, want.Blob) || len(got.WindowSlotBlobs) != len(want.WindowSlotBlobs) ||
		!bytes.Equal(got.WindowDecayedBlob, want.WindowDecayedBlob) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.WindowSlotBlobs {
		if !bytes.Equal(got.WindowSlotBlobs[i], want.WindowSlotBlobs[i]) {
			t.Errorf("slot %d: got %v, want %v", i, got.WindowSlotBlobs[i], want.WindowSlotBlobs[i])
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	b := AppendHeader(nil, 7)
	if len(b) != headerLen {
		t.Fatalf("header is %d bytes, want %d", len(b), headerLen)
	}
	count, rest, err := ParseHeader(append(b, 0xAA))
	if err != nil || count != 7 || len(rest) != 1 {
		t.Fatalf("ParseHeader = (%d, %d bytes, %v), want (7, 1, nil)", count, len(rest), err)
	}
	if _, _, err := ParseHeader(v1Header(0)); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 header: err = %v, want %v", err, ErrVersion)
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(b []byte) []byte { return b[:headerLen-1] }, ErrTruncated},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrMagic},
		{"version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], MaxRecords+1)
			return b
		}, ErrBadRecord},
	} {
		in := tc.mut(AppendHeader(nil, 0))
		if _, _, err := ParseHeader(in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	want := fullRecord()
	b := AppendRecord(nil, &want)
	got, rest, err := ParseRecord(append(b, 0xEE, 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes, want 2", len(rest))
	}
	sameRecord(t, got, want)

	// Planes absent: they stay nil.
	bare := Record{Family: wire.FamilyTheta, Name: []byte("x"), Spec: wire.Spec{Shards: 1}, Blob: nil}
	got, _, err = ParseRecord(AppendRecord(nil, &bare))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != bare.Spec || len(got.Blob) != 0 {
		t.Fatalf("bare record round trip = %+v", got)
	}

	// BeginRecord/EndRecord must equal AppendRecord byte for byte.
	streamed, m := BeginRecord(nil, &want)
	streamed = append(streamed, want.Blob...)
	streamed = EndRecord(streamed, m)
	if !bytes.Equal(streamed, b) {
		t.Fatal("BeginRecord/EndRecord differs from AppendRecord")
	}
}

func TestWindowedRecordRoundTrip(t *testing.T) {
	want := windowedRecord()
	b := AppendRecord(nil, &want)
	got, rest, err := ParseRecord(append(b, 0xEE))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 {
		t.Fatalf("rest = %d bytes, want 1", len(rest))
	}
	sameRecord(t, got, want)

	// No decay plane: the marker byte is 0 and the parsed blob stays nil.
	want.WindowDecayedBlob = nil
	got, _, err = ParseRecord(AppendRecord(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	if got.WindowDecayedBlob != nil {
		t.Fatalf("nil decay plane round-tripped to %v", got.WindowDecayedBlob)
	}

	// The streamed form — BeginRecord, blob in place, EndBlob, window tail,
	// EndRecord — is the checkpoint writer's path and must be byte-identical
	// to AppendRecord.
	want = windowedRecord()
	streamed, m := BeginRecord(nil, &want)
	streamed = append(streamed, want.Blob...)
	streamed = EndBlob(streamed, &m)
	streamed = AppendWindowTail(streamed, want.WindowSlotBlobs, want.WindowDecayedBlob)
	streamed = EndRecord(streamed, m)
	if !bytes.Equal(streamed, b) {
		t.Fatal("BeginRecord/EndBlob/AppendWindowTail/EndRecord differs from AppendRecord")
	}
}

func TestWindowedRecordErrors(t *testing.T) {
	rec := windowedRecord()
	valid := AppendRecord(nil, &rec)
	// reframe truncates the encoding to n bytes and fixes up the record
	// length prefix so the parser blames the window tail, not the framing.
	reframe := func(n int) []byte {
		b := append([]byte(nil), valid[:n]...)
		binary.LittleEndian.PutUint32(b, uint32(n-4))
		return b
	}
	// Cut inside the decay length field → truncated; cut inside the decay
	// body or a slot body → the announced length no longer matches, a
	// corruption error.
	if _, _, err := ParseRecord(reframe(len(valid) - 6)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated decay length: err = %v, want %v", err, ErrTruncated)
	}
	if _, _, err := ParseRecord(reframe(len(valid) - 2)); !errors.Is(err, ErrBadRecord) {
		t.Errorf("truncated decay plane: err = %v, want %v", err, ErrBadRecord)
	}
	cutSlotBody := len(valid) - len(rec.WindowDecayedBlob) - 4 - 1 - 1
	if _, _, err := ParseRecord(reframe(cutSlotBody)); !errors.Is(err, ErrBadRecord) {
		t.Errorf("truncated slot body: err = %v, want %v", err, ErrBadRecord)
	}

	mut := func(f func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	// The slot count sits right after the base blob's length-prefixed body;
	// locate it from the back: decayed blob + its length + marker + slot
	// bodies + their lengths + the count itself.
	slotCountOff := len(valid) - len(rec.WindowDecayedBlob) - 4 - 1
	for _, sl := range rec.WindowSlotBlobs {
		slotCountOff -= len(sl) + 4
	}
	slotCountOff -= 4
	over := mut(func(b []byte) {
		binary.LittleEndian.PutUint32(b[slotCountOff:], uint32(rec.Spec.Window.Slots+1))
	})
	if _, _, err := ParseRecord(over); !errors.Is(err, ErrBadRecord) {
		t.Errorf("slot count beyond capacity: err = %v, want %v", err, ErrBadRecord)
	}
	marker := mut(func(b []byte) {
		b[len(b)-len(rec.WindowDecayedBlob)-4-1] = 7
	})
	if _, _, err := ParseRecord(marker); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bad decay marker: err = %v, want %v", err, ErrBadRecord)
	}
	// Bytes after a complete window tail (no decay plane, so the tail's end
	// is the marker byte) are corruption, not slack.
	noDecay := rec
	noDecay.WindowDecayedBlob = nil
	trailing := AppendRecord(nil, &noDecay)
	trailing = append(trailing, 0xAB)
	binary.LittleEndian.PutUint32(trailing, uint32(len(trailing)-4))
	if _, _, err := ParseRecord(trailing); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bytes after window tail: err = %v, want %v", err, ErrBadRecord)
	}
}

func TestRecordErrors(t *testing.T) {
	valid := AppendRecord(nil, &Record{
		Family: wire.FamilyHLL, Name: []byte("n"), Spec: wire.Spec{Shards: 2}, Blob: []byte{9},
	})
	// The Spec's flags byte follows recLen, family, name length and name;
	// the blob length follows the flags and the Spec's two fixed words.
	const flagsOff, blobLenOff = 4 + 2 + 1, 4 + 2 + 1 + 1 + 16
	mut := func(f func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"short length", valid[:3], ErrTruncated},
		{"announced beyond input", valid[:len(valid)-1], ErrTruncated},
		{"huge recLen", mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b, math.MaxUint32)
		}), ErrBadRecord},
		{"unknown family", mut(func(b []byte) { b[4] = 200 }), ErrBadRecord},
		{"empty name", mut(func(b []byte) { b[5] = 0 }), ErrBadRecord},
		{"name past body", mut(func(b []byte) { b[5] = 100 }), ErrTruncated},
		{"unknown flags", mut(func(b []byte) { b[flagsOff] |= 0x80 }), ErrBadRecord},
		{"blob length mismatch", mut(func(b []byte) { b[blobLenOff]++ }), ErrBadRecord},
	}
	for _, tc := range cases {
		if _, _, err := ParseRecord(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A truncated Spec.
	viewRec := Record{Family: wire.FamilyTheta, Name: []byte("v"), Spec: wire.Spec{Shards: 1, View: &shard.ViewConfig{}}}
	cut := AppendRecord(nil, &viewRec)
	cut = cut[:len(cut)-6] // into the view words
	binary.LittleEndian.PutUint32(cut, uint32(len(cut)-4))
	if _, _, err := ParseRecord(cut); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated view: err = %v, want %v", err, ErrTruncated)
	}
}

func TestPortableRoundTrip(t *testing.T) {
	want := fullRecord()
	b := portable(&want)
	got, err := ParsePortable(b)
	if err != nil {
		t.Fatal(err)
	}
	sameRecord(t, got, want)
	// A portable record stamped with the retired version 1 is rejected
	// before its record is read.
	v1 := append([]byte(nil), b...)
	binary.LittleEndian.PutUint16(v1, 1)
	if _, err := ParsePortable(v1); !errors.Is(err, ErrVersion) {
		t.Errorf("v1 portable record: err = %v, want %v", err, ErrVersion)
	}

	if _, err := ParsePortable(append(b, 0)); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing byte: err = %v, want %v", err, ErrTrailing)
	}
	if _, err := ParsePortable([]byte{9}); !errors.Is(err, ErrTruncated) {
		t.Errorf("one byte: err = %v, want %v", err, ErrTruncated)
	}
	skew := append([]byte(nil), b...)
	binary.LittleEndian.PutUint16(skew, Version+1)
	if _, err := ParsePortable(skew); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: err = %v, want %v", err, ErrVersion)
	}
}

// FuzzSnapshotDecode throws arbitrary bytes at every decode surface of the
// persistence plane: the container header + record stream, the portable
// record, and all four families' ImportFrom hooks. The invariant everywhere
// is the same — typed error or success, never a panic, and a record that
// parses must re-encode to an identical parse.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHeader(nil, 0))
	rec := fullRecord()
	f.Add(AppendRecord(AppendHeader(nil, 1), &rec))
	f.Add(portable(&rec))
	win := windowedRecord()
	f.Add(AppendRecord(AppendHeader(nil, 1), &win))
	// Retired version-1 containers keep the rejection path fuzzed.
	f.Add(AppendRecord(v1Header(1), &rec))
	f.Add(AppendRecord(v1Header(1), &win))

	// Valid family bodies so the fuzzer explores deep into each decoder.
	u := theta.NewUnion(6, murmur.DefaultSeed)
	for i := uint64(1); i < 40; i++ {
		u.AddHashes([]uint64{i * 0x9E3779B97F4A7C15}, math.MaxUint64)
	}
	f.Add(u.ExportTo(nil))
	h := hll.New(4, murmur.DefaultSeed)
	for i := uint64(0); i < 100; i++ {
		h.Update(i)
	}
	f.Add(h.ExportTo(nil))
	qc := quantiles.NewComposable(64, quantiles.NewFixedBits(true))
	qc.MergeBuffer([]float64{1, 2, 3, 4, 5})
	qa := quantiles.NewAccumulator()
	qc.SnapshotMergeInto(qa)
	f.Add(qa.ExportTo(nil))
	cm := countmin.New(32, 3, murmur.DefaultSeed)
	for i := uint64(0); i < 50; i++ {
		cm.Update(i % 7)
	}
	f.Add(cm.ExportTo(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if count, rest, err := ParseHeader(data); err == nil {
			for i := 0; i < count && len(rest) > 0; i++ {
				rec, next, err := ParseRecord(rest)
				if err != nil {
					break
				}
				// A parsed record re-encodes losslessly.
				re, _, rerr := ParseRecord(AppendRecord(nil, &rec))
				if rerr != nil {
					t.Fatalf("re-encoded record does not parse: %v", rerr)
				}
				if re.Family != rec.Family || !bytes.Equal(re.Name, rec.Name) ||
					!reflect.DeepEqual(re.Spec, rec.Spec) || !bytes.Equal(re.Blob, rec.Blob) {
					t.Fatal("record re-encode round trip mismatch")
				}
				rest = next
			}
		}
		ParsePortable(data)

		theta.NewUnion(10, murmur.DefaultSeed).ImportFrom(data)
		hll.New(12, murmur.DefaultSeed).ImportFrom(data)
		quantiles.NewAccumulator().ImportFrom(data)
		countmin.New(64, 4, murmur.DefaultSeed).ImportFrom(data)
	})
}
