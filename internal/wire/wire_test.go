package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
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
		{"create", func() []byte { return AppendCreate(nil, 1, FamilyTheta, "users") },
			Request{Op: OpCreate, ID: 1, Family: FamilyTheta, Name: []byte("users")}},
		{"drop", func() []byte { return AppendDrop(nil, 2, FamilyCountMin, "api.calls") },
			Request{Op: OpDrop, ID: 2, Family: FamilyCountMin, Name: []byte("api.calls")}},
		{"info", func() []byte { return AppendInfo(nil, 3, FamilyHLL, "x") },
			Request{Op: OpInfo, ID: 3, Family: FamilyHLL, Name: []byte("x")}},
		{"resize", func() []byte { return AppendResize(nil, 4, FamilyQuantiles, "lat", 8) },
			Request{Op: OpResize, ID: 4, Family: FamilyQuantiles, Name: []byte("lat"), Arg: 8}},
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
				!bytes.Equal(got.Name, tc.want.Name) {
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

func TestAutoscaleRoundTrip(t *testing.T) {
	b := AppendAutoscale(nil, 12, "users", 2, 16, 250e3, 50e3)
	req, err := ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpAutoscale || string(req.Name) != "users" ||
		req.MinShards != 2 || req.MaxShards != 16 || req.High != 250e3 || req.Low != 50e3 {
		t.Fatalf("bad autoscale request: %+v", req)
	}
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

	inf := Info{Shards: 8, Writers: 4, Relaxation: 512, ShardRelaxation: 64, Eager: true}
	_, _, body, err = ParseResponse(frame(t, AppendOKInfo(nil, 24, inf)))
	if err != nil {
		t.Fatal(err)
	}
	gotInf, err := ParseInfo(body)
	if err != nil || gotInf != inf {
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
		{"zero-name", []byte{byte(OpCreate), 0, 0, 0, 0, byte(FamilyTheta), 0}},
		{"truncated-name", []byte{byte(OpCreate), 0, 0, 0, 0, byte(FamilyTheta), 5, 'a', 'b'}},
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
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatch(buf[:0], 1, FamilyTheta, "users", items)
		buf = AppendQuery(buf[:0], 2, FamilyTheta, QueryEstimate, "users", 0)
		buf = AppendOKU64(buf[:0], 3, 9)
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

func TestViewOpsRoundTrip(t *testing.T) {
	// EnableView carries two nanosecond scalars; a negative maxAge (never
	// expire) must survive the uint64 transit bit-exactly.
	neverExpire := ^uint64(0) // int64(-1) in transit
	b := AppendEnableView(nil, 31, "users", 50_000_000, neverExpire)
	req, err := ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpEnableView || req.ID != 31 || string(req.Name) != "users" ||
		req.Arg != 50_000_000 || req.Arg2 != neverExpire {
		t.Fatalf("bad enable-view request: %+v", req)
	}
	if int64(req.Arg2) != -1 {
		t.Fatalf("maxAge sign lost in transit: %d", int64(req.Arg2))
	}

	b = AppendDisableView(nil, 32, "users")
	req, err = ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpDisableView || req.ID != 32 || string(req.Name) != "users" {
		t.Fatalf("bad disable-view request: %+v", req)
	}

	// Truncated enable-view bodies are rejected, id preserved.
	full := AppendEnableView(nil, 33, "u", 1, 2)[4:]
	for cut := len(full) - 1; cut >= headerLen; cut-- {
		req, err := ParseRequest(full[:cut])
		if err == nil {
			t.Fatalf("truncated enable-view at %d bytes accepted", cut)
		}
		if req.ID != 33 {
			t.Fatalf("truncated enable-view lost id: %d", req.ID)
		}
	}
}

func TestWindowOpsRoundTrip(t *testing.T) {
	// EnableWindow carries the rotation interval, the ring capacity and the
	// decay factor; the float64 decay must survive its bits transit exactly.
	b := AppendEnableWindow(nil, 41, "users", 30_000_000_000, 12, 0.875)
	req, err := ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpEnableWindow || req.ID != 41 || string(req.Name) != "users" ||
		req.Arg != 30_000_000_000 || req.Slots != 12 ||
		math.Float64frombits(req.Arg2) != 0.875 {
		t.Fatalf("bad enable-window request: %+v", req)
	}

	b = AppendDisableWindow(nil, 42, "users")
	req, err = ParseRequest(frame(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpDisableWindow || req.ID != 42 || string(req.Name) != "users" {
		t.Fatalf("bad disable-window request: %+v", req)
	}

	// Truncated enable-window bodies are rejected at every cut, id preserved.
	full := AppendEnableWindow(nil, 43, "u", 1, 2, 0.5)[4:]
	for cut := len(full) - 1; cut >= headerLen; cut-- {
		req, err := ParseRequest(full[:cut])
		if err == nil {
			t.Fatalf("truncated enable-window at %d bytes accepted", cut)
		}
		if req.ID != 43 {
			t.Fatalf("truncated enable-window lost id: %d", req.ID)
		}
	}
	// Trailing bytes are rejected too — the body must be consumed exactly.
	if _, err := ParseRequest(append(append([]byte(nil), full...), 0xCC)); err == nil {
		t.Fatal("enable-window with trailing byte accepted")
	}
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

func TestInfoWindowFieldsRoundTrip(t *testing.T) {
	inf := Info{Shards: 4, Writers: 2, Relaxation: 128, ShardRelaxation: 32,
		WindowEnabled: true, WindowSlots: 6,
		WindowIntervalNs: 60_000_000_000, WindowRotations: 42, WindowLiveAgeNs: 12_345_678}
	_, _, body, err := ParseResponse(frame(t, AppendOKInfo(nil, 27, inf)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseInfo(body)
	if err != nil || got != inf {
		t.Fatalf("info = %+v (err %v), want %+v", got, err, inf)
	}
	// Window absent: every window field must decode as zero.
	inf = Info{Shards: 4, Writers: 2, Relaxation: 128, ShardRelaxation: 32}
	_, _, body, _ = ParseResponse(frame(t, AppendOKInfo(nil, 28, inf)))
	if got, err := ParseInfo(body); err != nil || got != inf {
		t.Fatalf("window-less info = %+v (err %v), want %+v", got, err, inf)
	}
	// A truncated info body is a typed error at every cut.
	full := AppendOKInfo(nil, 29, inf)[4:]
	_, _, body, err = ParseResponse(full)
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
	inf := Info{Shards: 4, Writers: 2, Relaxation: 128, ShardRelaxation: 32,
		Eager: true, ViewEnabled: true, ViewLagNs: 1_500_000}
	_, _, body, err := ParseResponse(frame(t, AppendOKInfo(nil, 25, inf)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseInfo(body)
	if err != nil || got != inf {
		t.Fatalf("info = %+v (err %v), want %+v", got, err, inf)
	}
	// And with the view absent: the flag and lag must decode as zero.
	inf.ViewEnabled = false
	inf.ViewLagNs = 0
	_, _, body, _ = ParseResponse(frame(t, AppendOKInfo(nil, 26, inf)))
	if got, err := ParseInfo(body); err != nil || got != inf {
		t.Fatalf("view-less info = %+v (err %v), want %+v", got, err, inf)
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
