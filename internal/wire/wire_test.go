package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastsketches/internal/shard"
)

// frame strips the length prefix after checking it matches the payload.
func frame(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) < 4 {
		t.Fatalf("frame shorter than its prefix: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if int(n) != len(b)-4 {
		t.Fatalf("length prefix %d != payload %d", n, len(b)-4)
	}
	return b[4:]
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		encode func() []byte
		want   Request
	}{
		{"ping", func() []byte { return AppendPing(nil, 7) }, Request{Op: OpPing, ID: 7}},
		{"names", func() []byte { return AppendNamesReq(nil, 9) }, Request{Op: OpNames, ID: 9}},
		{"create", func() []byte { return AppendApply(nil, 1, FamilyTheta, "users", &Spec{}) },
			Request{Op: OpApply, ID: 1, Family: FamilyTheta, Name: []byte("users")}},
		{"drop", func() []byte { return AppendDrop(nil, 2, FamilyCountMin, "api.calls") },
			Request{Op: OpDrop, ID: 2, Family: FamilyCountMin, Name: []byte("api.calls")}},
		{"info", func() []byte { return AppendInfo(nil, 3, FamilyHLL, "x") },
			Request{Op: OpInfo, ID: 3, Family: FamilyHLL, Name: []byte("x")}},
		{"resize", func() []byte { return AppendApply(nil, 4, FamilyQuantiles, "lat", &Spec{Shards: 8}) },
			Request{Op: OpApply, ID: 4, Family: FamilyQuantiles, Name: []byte("lat"), Spec: Spec{Shards: 8}}},
		{"query-estimate", func() []byte { return AppendQuery(nil, 5, FamilyTheta, QueryEstimate, "users", 0) },
			Request{Op: OpQuery, ID: 5, Family: FamilyTheta, Query: QueryEstimate, Name: []byte("users")}},
		{"query-quantile", func() []byte {
			return AppendQuery(nil, 6, FamilyQuantiles, QueryQuantile, "lat", math.Float64bits(0.99))
		}, Request{Op: OpQuery, ID: 6, Family: FamilyQuantiles, Query: QueryQuantile,
			Name: []byte("lat"), Arg: math.Float64bits(0.99)}},
		{"query-count", func() []byte { return AppendQuery(nil, 8, FamilyCountMin, QueryCount, "api.calls", 42) },
			Request{Op: OpQuery, ID: 8, Family: FamilyCountMin, Query: QueryCount,
				Name: []byte("api.calls"), Arg: 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseRequest(frame(t, tc.encode()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Op != tc.want.Op || got.ID != tc.want.ID || got.Family != tc.want.Family ||
				got.Query != tc.want.Query || got.Arg != tc.want.Arg ||
				!bytes.Equal(got.Name, tc.want.Name) || !reflect.DeepEqual(got.Spec, tc.want.Spec) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestBatchRoundTrip(t *testing.T) {
	items := []uint64{1, 2, 3, math.Float64bits(2.5), 1 << 63}
	b := AppendBatch(nil, 11, FamilyTheta, "users", items)
	req, err := ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpBatch || req.ID != 11 || string(req.Name) != "users" {
		t.Fatalf("bad envelope: %+v", req)
	}
	if req.NumItems() != len(items) {
		t.Fatalf("NumItems = %d, want %d", req.NumItems(), len(items))
	}
	for i, want := range items {
		if got := req.Item(i); got != want {
			t.Fatalf("item %d = %d, want %d", i, got, want)
		}
	}
}

// fullSpec sets every Spec field to a value no default produces; the
// planes carry no Clock, as a decoded Spec never does.
func fullSpec() Spec {
	return Spec{
		Shards:  12,
		Window:  &shard.WindowConfig{Interval: 30 * time.Second, Slots: 12, Decay: 0.875},
		View:    &shard.ViewConfig{RefreshEvery: 50 * time.Millisecond, MaxAge: -1},
		IdleTTL: 90 * time.Minute,
		Pinned:  true,
	}
}

// TestApplyRoundTrip: an OpApply frame carries every field of a Spec and
// the off switches, bit-exactly; a sketch family of 0 addresses every
// family under the name.
func TestApplyRoundTrip(t *testing.T) {
	for _, want := range []Spec{fullSpec(), {ViewOff: true, WindowOff: true}, {}} {
		req, err := ParseRequest(frame(t, AppendApply(nil, 12, 0, "users", &want)))
		if err != nil {
			t.Fatal(err)
		}
		if req.Op != OpApply || req.ID != 12 || req.Family != 0 || string(req.Name) != "users" ||
			!reflect.DeepEqual(req.Spec, want) {
			t.Fatalf("apply round trip:\n got %+v\nwant %+v", req.Spec, want)
		}
		if n := len(AppendSpec(nil, &want)); n > MaxSpecLen {
			t.Fatalf("encoded Spec %d bytes > MaxSpecLen %d", n, MaxSpecLen)
		}
	}
}

// TestReservedSpecBits: the removed autoscale plane's flag bits 2 and 5 stay
// reserved, so pinned still travels at bit 6. A Spec or an OpApply frame
// carrying either reserved bit fails with ErrRemovedAutoscale, an
// ErrBadSpec; so does the removed OpMergeRemote opcode, with ErrRemovedOp.
func TestReservedSpecBits(t *testing.T) {
	enc := AppendSpec(nil, &Spec{Pinned: true})
	if enc[0] != 1<<6 {
		t.Fatalf("pinned encodes as flags %#x, want bit 6", enc[0])
	}
	if s, _, err := ParseSpec(enc); err != nil || !s.Pinned {
		t.Fatalf("pinned round trip: %+v, %v", s, err)
	}
	for _, bit := range []uint{2, 5} {
		b := append([]byte(nil), enc...)
		b[0] |= 1 << bit
		if _, _, err := ParseSpec(b); !errors.Is(err, ErrBadSpec) || !errors.Is(err, ErrRemovedAutoscale) {
			t.Errorf("Spec with bit %d: %v, want ErrRemovedAutoscale wrapping ErrBadSpec", bit, err)
		}
		apply := AppendApply(nil, 7, FamilyTheta, "users", &Spec{Pinned: true})
		apply[len(apply)-len(enc)] |= 1 << bit
		if _, err := ParseRequest(frame(t, apply)); !errors.Is(err, ErrBadSpec) || !errors.Is(err, ErrRemovedAutoscale) {
			t.Errorf("OpApply with spec bit %d: %v, want ErrRemovedAutoscale wrapping ErrBadSpec", bit, err)
		}
	}
	req, err := ParseRequest(frame(t, mergeRemoteFrame(9)))
	if !errors.Is(err, ErrRemovedOp) || !errors.Is(err, ErrBadOp) || req.ID != 9 {
		t.Errorf("OpMergeRemote opcode: id %d, %v, want id 9 and ErrRemovedOp wrapping ErrBadOp", req.ID, err)
	}
}

// mergeRemoteFrame is a frame as the removed AppendMergeRemote encoded it:
// family, name and a length-prefixed peer address after the header.
func mergeRemoteFrame(id uint32) []byte {
	dst, m := beginFrame(nil)
	dst = appendHeader(dst, byte(opMergeRemote), id)
	dst = append(dst, byte(FamilyCountMin), 1, 'm')
	dst = binary.LittleEndian.AppendUint16(dst, 14)
	dst = append(dst, "127.0.0.1:7600"...)
	return endFrame(dst, m)
}

func TestResponseRoundTrip(t *testing.T) {
	status, id, body, err := ParseResponse(frame(t, AppendOKU64(nil, 21, math.Float64bits(123.5))))
	if err != nil || status != StatusOK || id != 21 {
		t.Fatalf("u64 response: status=%d id=%d err=%v", status, id, err)
	}
	if v := math.Float64frombits(binary.LittleEndian.Uint64(body)); v != 123.5 {
		t.Fatalf("decoded %v, want 123.5", v)
	}

	status, id, body, err = ParseResponse(frame(t, AppendError(nil, 22, "no such sketch")))
	if err != nil || status != StatusError || id != 22 || string(body) != "no such sketch" {
		t.Fatalf("error response: status=%d id=%d body=%q err=%v", status, id, body, err)
	}

	names := []string{"theta/users", "countmin/api.calls", ""}
	_, _, body, err = ParseResponse(frame(t, AppendOKNames(nil, 23, names[:2])))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseNames(body)
	if err != nil || len(got) != 2 || got[0] != names[0] || got[1] != names[1] {
		t.Fatalf("names = %v (err %v), want %v", got, err, names[:2])
	}

	inf := Info{Spec: Spec{Shards: 8}, Writers: 4, Relaxation: 512, ShardRelaxation: 64, Eager: true}
	_, _, body, err = ParseResponse(frame(t, AppendOKInfo(nil, 24, &inf)))
	if err != nil {
		t.Fatal(err)
	}
	gotInf, err := ParseInfo(body)
	if err != nil || !reflect.DeepEqual(gotInf, inf) {
		t.Fatalf("info = %+v (err %v), want %+v", gotInf, err, inf)
	}
}

func TestParseRequestRejectsMalformed(t *testing.T) {
	valid := AppendQuery(nil, 1, FamilyTheta, QueryEstimate, "u", 0)[4:]
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short-header", []byte{byte(OpPing), 0}},
		{"bad-op", []byte{0xee, 0, 0, 0, 0}},
		{"op-zero", []byte{0, 0, 0, 0, 0}},
		{"ping-trailing", append(AppendPing(nil, 1)[4:], 0xff)},
		{"bad-family", func() []byte {
			b := append([]byte(nil), valid...)
			b[headerLen] = 0x7f
			return b
		}()},
		{"bad-query", func() []byte {
			b := append([]byte(nil), valid...)
			b[headerLen+1] = 0x7f
			return b
		}()},
		{"zero-name", []byte{byte(OpApply), 0, 0, 0, 0, byte(FamilyTheta), 0}},
		{"truncated-name", []byte{byte(OpApply), 0, 0, 0, 0, byte(FamilyTheta), 5, 'a', 'b'}},
		{"apply-bad-flags", func() []byte {
			b := AppendApply(nil, 1, FamilyTheta, "u", &Spec{})[4:]
			b[headerLen+3] = 0x80 // the Spec's flags follow family byte + name "u"
			return b
		}()},
		{"query-missing-arg", AppendQuery(nil, 1, FamilyQuantiles, QueryQuantile, "u", 1)[4 : 4+headerLen+2+2]},
		{"query-trailing", append(append([]byte(nil), valid...), 1, 2, 3)},
		{"batch-count-mismatch", func() []byte {
			b := AppendBatch(nil, 1, FamilyTheta, "u", []uint64{1, 2})[4:]
			// corrupt the count field (follows family byte + name "u")
			binary.LittleEndian.PutUint32(b[headerLen+3:], 7)
			return b
		}()},
		{"batch-huge-count", func() []byte {
			b := AppendBatch(nil, 1, FamilyTheta, "u", []uint64{1})[4:]
			binary.LittleEndian.PutUint32(b[headerLen+3:], MaxBatchItems+1)
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseRequest(tc.payload); err == nil {
				t.Fatalf("ParseRequest accepted malformed payload %x", tc.payload)
			}
		})
	}
}

func TestReadFrame(t *testing.T) {
	var buf []byte
	src := AppendPing(nil, 5)
	src = AppendOKU32(src, 6, 99)
	r := bytes.NewReader(src)

	p1, err := ReadFrame(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRequest(p1)
	if err != nil || req.Op != OpPing || req.ID != 5 {
		t.Fatalf("first frame: %+v err=%v", req, err)
	}
	p2, err := ReadFrame(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if status, id, _, err := ParseResponse(p2); err != nil || status != StatusOK || id != 6 {
		t.Fatalf("second frame: status=%d id=%d err=%v", status, id, err)
	}

	// Oversized length prefix: rejected before any allocation or read.
	huge := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge), &buf); err != ErrFrameTooLarge {
		t.Fatalf("oversize: err = %v, want ErrFrameTooLarge", err)
	}

	// Truncated body: io error, not a short payload.
	trunc := binary.LittleEndian.AppendUint32(nil, 10)
	trunc = append(trunc, 1, 2, 3)
	if _, err := ReadFrame(bytes.NewReader(trunc), &buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestValidName(t *testing.T) {
	if err := ValidName("users.daily"); err != nil {
		t.Fatal(err)
	}
	if err := ValidName(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := ValidName(strings.Repeat("n", MaxName+1)); err == nil {
		t.Fatal("overlong name accepted")
	}
}

// TestEncodersAppendInPlace pins the allocation discipline encode-side: an
// Append* call into a buffer with spare capacity must not allocate, which is
// what keeps the client's per-connection write buffer reuse zero-alloc.
func TestEncodersAppendInPlace(t *testing.T) {
	buf := make([]byte, 0, 4096)
	items := []uint64{1, 2, 3, 4}
	spec := fullSpec()
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatch(buf[:0], 1, FamilyTheta, "users", items)
		buf = AppendQuery(buf[:0], 2, FamilyTheta, QueryEstimate, "users", 0)
		buf = AppendOKU64(buf[:0], 3, 9)
		buf = AppendApply(buf[:0], 4, FamilyTheta, "users", &spec)
	})
	if allocs != 0 {
		t.Fatalf("encoders allocated %.1f/run into a pre-sized buffer", allocs)
	}
}

// TestAppendOKNamesBounded pins that the Names response can never exceed
// MaxFrame: an oversized registry listing is truncated to what fits, and
// the truncated frame still parses cleanly.
func TestAppendOKNamesBounded(t *testing.T) {
	name := "countmin/" + strings.Repeat("n", 100)
	names := make([]string, 15_000) // ~1.6 MiB if unbounded
	for i := range names {
		names[i] = name
	}
	b := AppendOKNames(nil, 1, names)
	payload := frame(t, b)
	if len(payload) > MaxFrame {
		t.Fatalf("Names response payload %d exceeds MaxFrame", len(payload))
	}
	_, _, body, err := ParseResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseNames(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(names) {
		t.Fatalf("truncated list has %d entries, want 0 < n < %d", len(got), len(names))
	}
	for _, n := range got {
		if n != name {
			t.Fatal("truncation corrupted an entry")
		}
	}
}

// truncationsRejected asserts that every cut of a request payload short of
// its end is rejected with the request id preserved, and a trailing byte
// too — the body must be consumed exactly.
func truncationsRejected(t *testing.T, full []byte, id uint32) {
	t.Helper()
	for cut := len(full) - 1; cut >= headerLen; cut-- {
		req, err := ParseRequest(full[:cut])
		if err == nil {
			t.Fatalf("truncated request at %d bytes accepted", cut)
		}
		if req.ID != id {
			t.Fatalf("truncated request lost id: %d", req.ID)
		}
	}
	if _, err := ParseRequest(append(append([]byte(nil), full...), 0xCC)); err == nil {
		t.Fatal("request with a trailing byte accepted")
	}
}

func TestViewOpsRoundTrip(t *testing.T) {
	// A view carries two nanosecond scalars; a negative maxAge (never
	// expire) must survive the transit bit-exactly.
	view := &shard.ViewConfig{RefreshEvery: 50 * time.Millisecond, MaxAge: -1}
	req, err := ParseRequest(frame(t, AppendApply(nil, 31, 0, "users", &Spec{View: view})))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpApply || req.ID != 31 || string(req.Name) != "users" || req.Spec.View == nil ||
		*req.Spec.View != *view || req.Spec.ViewOff {
		t.Fatalf("bad view request: %+v", req)
	}
	req, err = ParseRequest(frame(t, AppendApply(nil, 32, 0, "users", &Spec{ViewOff: true})))
	if err != nil {
		t.Fatal(err)
	}
	if req.Spec.View != nil || !req.Spec.ViewOff {
		t.Fatalf("bad view-off request: %+v", req)
	}
	truncationsRejected(t, AppendApply(nil, 33, 0, "u", &Spec{View: view})[4:], 33)
}

func TestWindowOpsRoundTrip(t *testing.T) {
	// A window carries the rotation interval, the ring capacity and the
	// decay factor; the float64 decay must survive its bits transit exactly.
	win := &shard.WindowConfig{Interval: 30 * time.Second, Slots: 12, Decay: 0.875}
	req, err := ParseRequest(frame(t, AppendApply(nil, 41, 0, "users", &Spec{Window: win})))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpApply || req.ID != 41 || string(req.Name) != "users" || req.Spec.Window == nil ||
		*req.Spec.Window != *win {
		t.Fatalf("bad window request: %+v", req)
	}
	req, err = ParseRequest(frame(t, AppendApply(nil, 42, 0, "users", &Spec{WindowOff: true})))
	if err != nil {
		t.Fatal(err)
	}
	if req.Spec.Window != nil || !req.Spec.WindowOff {
		t.Fatalf("bad window-off request: %+v", req)
	}
	full := fullSpec()
	truncationsRejected(t, AppendApply(nil, 43, FamilyCountMin, "u", &full)[4:], 43)
}

func TestWindowQueryKindsRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		family Family
		query  Query
		arg    uint64
	}{
		{"theta-window-estimate", FamilyTheta, QueryWindowEstimate, 0},
		{"hll-window-estimate", FamilyHLL, QueryWindowEstimate, 0},
		{"window-quantile", FamilyQuantiles, QueryWindowQuantile, math.Float64bits(0.5)},
		{"window-quantiles-n", FamilyQuantiles, QueryWindowN, 0},
		{"window-count", FamilyCountMin, QueryWindowCount, 99},
		{"window-countmin-n", FamilyCountMin, QueryWindowN, 0},
		{"decayed-count", FamilyCountMin, QueryDecayedCount, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendQuery(nil, 51, tc.family, tc.query, "w", tc.arg)
			req, err := ParseRequest(frame(t, b))
			if err != nil {
				t.Fatal(err)
			}
			if req.Op != OpQuery || req.Family != tc.family || req.Query != tc.query ||
				string(req.Name) != "w" || req.Arg != tc.arg {
				t.Fatalf("got %+v", req)
			}
			// The keyed/ranked kinds carry an argument, the scalar kinds don't;
			// the encoder and parser must agree through NeedsArg.
			wantArg := tc.query == QueryWindowQuantile || tc.query == QueryWindowCount ||
				tc.query == QueryDecayedCount
			if NeedsArg(tc.query) != wantArg {
				t.Fatalf("NeedsArg = %v, want %v", NeedsArg(tc.query), wantArg)
			}
		})
	}
}

// infoRoundTrip encodes inf as an OpInfo response and decodes it back.
func infoRoundTrip(t *testing.T, inf Info) Info {
	t.Helper()
	_, _, body, err := ParseResponse(frame(t, AppendOKInfo(nil, 27, &inf)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestInfoWindowFieldsRoundTrip(t *testing.T) {
	inf := Info{Spec: Spec{Shards: 4, Window: &shard.WindowConfig{Interval: time.Minute, Slots: 6}},
		Writers: 2, Relaxation: 128, ShardRelaxation: 32, WindowRotations: 42, WindowLiveAgeNs: 12_345_678}
	if got := infoRoundTrip(t, inf); !reflect.DeepEqual(got, inf) {
		t.Fatalf("info = %+v, want %+v", got, inf)
	}
	// Window absent: the plane and its live stats decode as zero.
	inf = Info{Spec: Spec{Shards: 4}, Writers: 2, Relaxation: 128, ShardRelaxation: 32}
	if got := infoRoundTrip(t, inf); !reflect.DeepEqual(got, inf) {
		t.Fatalf("window-less info = %+v, want %+v", got, inf)
	}
	// A truncated info body is a typed error at every cut.
	inf.Spec = fullSpec()
	_, _, body, err := ParseResponse(AppendOKInfo(nil, 29, &inf)[4:])
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(body) - 1; cut >= 0; cut-- {
		if _, err := ParseInfo(body[:cut]); err == nil {
			t.Fatalf("truncated info body at %d bytes accepted", cut)
		}
	}
}

func TestInfoViewFieldsRoundTrip(t *testing.T) {
	inf := Info{Spec: fullSpec(), Writers: 2, Relaxation: 128, ShardRelaxation: 32,
		Eager: true, ViewLagNs: 1_500_000}
	if got := infoRoundTrip(t, inf); !reflect.DeepEqual(got, inf) {
		t.Fatalf("info = %+v, want %+v", got, inf)
	}
	// And with the view absent: the plane and lag decode as zero.
	inf.Spec.View, inf.ViewLagNs = nil, 0
	if got := infoRoundTrip(t, inf); !reflect.DeepEqual(got, inf) {
		t.Fatalf("view-less info = %+v, want %+v", got, inf)
	}
}

// TestFamilyNamesRoundTrip: every family's registry-facing name parses back
// to the family, and a name no family has is rejected.
func TestFamilyNamesRoundTrip(t *testing.T) {
	for f := Family(1); f < familyMax; f++ {
		if got, err := ParseFamily(f.String()); err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
	for _, name := range []string{"", "Theta", "kll", familyMax.String(), Family(0).String()} {
		if f, err := ParseFamily(name); !errors.Is(err, ErrBadFamily) {
			t.Errorf("ParseFamily(%q) = %v, %v; want ErrBadFamily", name, f, err)
		}
	}
}
