// Package wire defines the length-prefixed binary protocol spoken between
// sketchd (internal/server over a fastsketches.Registry) and the client
// library (fastsketches/client) — the serving layer's wire format.
//
// # Framing
//
// Every message, in both directions, is one frame:
//
//	uint32 LE payload length | payload          (length ≤ MaxFrame)
//
// A request payload is
//
//	uint8 op | uint32 LE request id | op-specific body
//
// and a response payload is
//
//	uint8 status | uint32 LE request id | body
//
// where status is StatusOK (body is op-specific) or StatusError (body is a
// UTF-8 error message). The request id is chosen by the client and echoed
// verbatim, which is what makes pipelining work: a client may have many
// requests in flight on one connection and match responses by id. The
// server answers requests of one connection in order, so ids are a
// convenience for the client, not a reordering license.
//
// # Ops
//
//	OpPing         liveness probe                                  → empty
//	OpBatch        batched ingest: many items, one frame           → uint32 ack count
//	OpQuery        merged query (see Query kinds)                  → 8-byte result
//	OpApply        apply a Spec to the named sketch(es)            → empty
//	OpDrop         close and remove the named sketch               → empty
//	OpNames        enumerate registered sketches                   → name list
//	OpInfo         the named sketch's Spec in force and live stats → Info
//	OpSnapshot     export the named sketch's merged state          → portable snapshot record
//	OpRestore      fold a portable snapshot into the named sketch  → empty
//	OpCheckpoint   write the server's checkpoint file now          → empty
//	OpOpsStats     lifecycle sweeper / memory-budget counters      → OpsStats
//
// OpApply is the whole control plane: its body is family | name | Spec (see
// AppendSpec). A family byte 0 applies the Spec to every sketch registered
// under the name and creates none; any other family gets or creates its
// sketch, as the registry's Open* does.
//
// Opcode 10 is reserved. It was OpMergeRemote, which made the daemon dial a
// peer; a client merges a peer's sketch with OpSnapshot on the peer and
// OpRestore here. ParseRequest rejects it with ErrRemovedOp.
//
// Batch items are fixed 8-byte words: uint64 keys for Θ/HLL/Count-Min,
// IEEE-754 bits (math.Float64bits) for quantiles values. Fixed-size items
// keep encode/decode allocation-free and let the server decode a batch
// block by block without reparsing.
//
// # Allocation discipline
//
// Encoders are append-style (Append* returns the extended buffer) and
// parsers return views into the input payload (Request.Name and
// Request.Items alias the parse buffer and are valid only until its next
// reuse), so both sides can run their steady-state hot paths — batched
// ingest and pipelined scalar queries — with zero allocations per frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// MaxFrame caps one frame's payload. Frames announcing a larger length
	// are rejected before any allocation, so a malicious or corrupt length
	// prefix cannot balloon server memory.
	MaxFrame = 1 << 20
	// MaxName is the longest sketch name on the wire (uint8 length prefix).
	MaxName = 255
	// ItemSize is the wire size of one batch item: a uint64 key or the
	// IEEE-754 bits of a float64 value.
	ItemSize = 8
	// HeaderLen is the fixed request/response header: op/status (1) +
	// request id (4). A payload of at least HeaderLen bytes is addressable —
	// its request id is readable — so a server can answer even a
	// semantically malformed request with a typed error on the same
	// connection instead of dropping it.
	HeaderLen = 5
	// headerLen is HeaderLen, package-internal shorthand.
	headerLen = HeaderLen
	// MaxBatchItems is the largest item count one OpBatch frame can carry
	// within MaxFrame (header, family, name, count prefix accounted).
	MaxBatchItems = (MaxFrame - headerLen - 2 - MaxName - 4) / ItemSize
	// MaxShards bounds the shard count a Spec declares. Far above any sane
	// deployment, low enough that one malicious frame or checkpoint cannot
	// make a process build billions of shard frameworks; Spec.Validate
	// rejects values above it.
	MaxShards = 4096
	// MaxBlob is the largest snapshot blob an OpRestore frame can carry
	// within MaxFrame (header, family, name, count prefix accounted). An
	// OpSnapshot response is bounded the same way: a sketch whose portable
	// snapshot would exceed the frame budget is reported as a typed error,
	// never an oversized frame.
	MaxBlob = MaxFrame - headerLen - 2 - MaxName - 4
)

// Op identifies a request's operation.
type Op uint8

// The request operations.
const (
	OpPing Op = iota + 1
	OpBatch
	OpQuery
	OpApply
	OpDrop
	OpNames
	OpInfo
	OpSnapshot
	OpRestore
	opMergeRemote // reserved: rejected with ErrRemovedOp
	OpCheckpoint
	OpOpsStats
	opMax
)

// Family identifies a sketch family on the wire. The string forms (used by
// the registry's string-family admin API and "family/name" listings) are
// produced by Family.String and parsed back by ParseFamily.
type Family uint8

// The sketch families.
const (
	FamilyTheta Family = iota + 1
	FamilyHLL
	FamilyQuantiles
	FamilyCountMin
	familyMax
)

// familyNames is the one place family ids meet their registry-facing names.
var familyNames = [familyMax]string{
	FamilyTheta:     "theta",
	FamilyHLL:       "hll",
	FamilyQuantiles: "quantiles",
	FamilyCountMin:  "countmin",
}

// Valid reports whether f is a defined family id.
func (f Family) Valid() bool { return f >= 1 && f < familyMax }

// String returns the registry-facing family name.
func (f Family) String() string {
	if f.Valid() {
		return familyNames[f]
	}
	return fmt.Sprintf("family(%d)", uint8(f))
}

// ParseFamily is the inverse of Family.String; an unknown name fails with
// ErrBadFamily.
func ParseFamily(name string) (Family, error) {
	for f := Family(1); f < familyMax; f++ {
		if familyNames[f] == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrBadFamily, name)
}

// Query identifies a merged-query kind within OpQuery.
type Query uint8

// The query kinds. Estimate serves Θ/HLL distinct counts; Quantile, Rank
// and N serve the quantiles family (N also serves Count-Min total weight);
// Count is the Count-Min per-key frequency (single-shard staleness bound).
//
// The Window* kinds answer over the sketch's declared sliding window (the
// last Slots closed intervals plus the live one) instead of the cumulative
// stream, and DecayedCount over the Count-Min exponentially time-decayed
// plane. They fail as typed errors when the named sketch has no window
// declared (Spec.Window, or the server's default window).
const (
	QueryEstimate Query = iota + 1
	QueryQuantile
	QueryRank
	QueryN
	QueryCount
	QueryWindowEstimate
	QueryWindowQuantile
	QueryWindowN
	QueryWindowCount
	QueryDecayedCount
	queryMax
)

// NeedsArg reports whether the query kind carries an 8-byte argument
// (Quantile/WindowQuantile: phi bits, Rank: value bits,
// Count/WindowCount/DecayedCount: key).
func NeedsArg(q Query) bool {
	switch q {
	case QueryQuantile, QueryRank, QueryCount,
		QueryWindowQuantile, QueryWindowCount, QueryDecayedCount:
		return true
	}
	return false
}

// Response statuses.
const (
	StatusOK    = 0
	StatusError = 1
)

// The protocol's parse errors. ParseRequest/ParseResponse return one of
// these (possibly wrapped with context); they never panic on any input.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrTrailing      = errors.New("wire: trailing bytes after payload")
	ErrBadOp         = errors.New("wire: unknown op")
	ErrBadFamily     = errors.New("wire: unknown family")
	ErrBadQuery      = errors.New("wire: unknown query kind")
	ErrBadName       = errors.New("wire: bad sketch name")
	ErrBadCount      = errors.New("wire: item count does not match payload")
	ErrBadStatus     = errors.New("wire: unknown response status")
	ErrBadBlob       = errors.New("wire: blob length does not match payload")
	ErrBlobTooLarge  = errors.New("wire: snapshot blob exceeds frame budget")
	ErrBadSpec       = errors.New("wire: bad spec flags")
	// ErrRemovedOp rejects the reserved opcode of the removed OpMergeRemote.
	ErrRemovedOp = fmt.Errorf("%w: OpMergeRemote was removed; snapshot the peer and restore the blob", ErrBadOp)
	// ErrRemovedAutoscale rejects a Spec carrying flag bit 2 or 5, the
	// reserved bits of the removed autoscale plane. A checkpoint written
	// with a policy attached is upgraded on the build that wrote it: apply
	// Spec{AutoscaleOff: true} to each autoscaled name, then checkpoint.
	ErrRemovedAutoscale = fmt.Errorf("%w: the autoscale plane was removed (bits 2/5); "+
		"rewrite such a checkpoint on the old build after applying Spec{AutoscaleOff: true}, "+
		"and size S with Spec.Shards or Resize", ErrBadSpec)
	// ErrConfig reports an invalid configuration: every Spec that fails
	// Validate wraps it, whichever path the Spec arrived on.
	ErrConfig = errors.New("fastsketches: invalid configuration")
)

// ValidName reports whether a sketch name fits the wire format (1..MaxName
// bytes).
func ValidName(name string) error {
	if len(name) == 0 || len(name) > MaxName {
		return fmt.Errorf("%w: length %d outside [1,%d]", ErrBadName, len(name), MaxName)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into *buf (grown as
// needed, reused across calls) and returns the payload view. A length
// prefix beyond MaxFrame fails before any read or allocation.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	// The length prefix is read through the reusable buffer too: a local
	// array would escape through the io.ReadFull interface call and cost
	// one allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// beginFrame reserves the 4-byte length prefix; endFrame backfills it.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, mark int) []byte {
	binary.LittleEndian.PutUint32(dst[mark:], uint32(len(dst)-mark-4))
	return dst
}

func appendHeader(dst []byte, first byte, id uint32) []byte {
	dst = append(dst, first)
	return binary.LittleEndian.AppendUint32(dst, id)
}

func appendName(dst []byte, name string) []byte {
	dst = append(dst, byte(len(name)))
	return append(dst, name...)
}

// AppendPing appends an OpPing request frame.
func AppendPing(dst []byte, id uint32) []byte {
	dst, m := beginFrame(dst)
	return endFrame(appendHeader(dst, byte(OpPing), id), m)
}

// AppendNamesReq appends an OpNames request frame.
func AppendNamesReq(dst []byte, id uint32) []byte {
	dst, m := beginFrame(dst)
	return endFrame(appendHeader(dst, byte(OpNames), id), m)
}

// appendFamName appends a request frame of shape op|id|family|name.
func appendFamName(dst []byte, op Op, id uint32, fam Family, name string) ([]byte, int) {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, byte(op), id)
	dst = append(dst, byte(fam))
	return appendName(dst, name), m
}

// AppendDrop appends an OpDrop request frame.
func AppendDrop(dst []byte, id uint32, fam Family, name string) []byte {
	dst, m := appendFamName(dst, OpDrop, id, fam, name)
	return endFrame(dst, m)
}

// AppendInfo appends an OpInfo request frame.
func AppendInfo(dst []byte, id uint32, fam Family, name string) []byte {
	dst, m := appendFamName(dst, OpInfo, id, fam, name)
	return endFrame(dst, m)
}

// AppendApply appends an OpApply request frame: apply spec to the named
// sketch of family fam (created if absent) or, with fam 0, to every sketch
// registered under name.
func AppendApply(dst []byte, id uint32, fam Family, name string, spec *Spec) []byte {
	dst, m := appendFamName(dst, OpApply, id, fam, name)
	return endFrame(AppendSpec(dst, spec), m)
}

// AppendSnapshotReq appends an OpSnapshot request frame: export the named
// sketch's merged state as a portable snapshot record (the success response
// body).
func AppendSnapshotReq(dst []byte, id uint32, fam Family, name string) []byte {
	dst, m := appendFamName(dst, OpSnapshot, id, fam, name)
	return endFrame(dst, m)
}

// AppendRestore appends an OpRestore request frame folding a portable
// snapshot record (as returned by OpSnapshot) into the named sketch. The
// blob is opaque to the wire layer; callers cap len(blob) at MaxBlob.
func AppendRestore(dst []byte, id uint32, fam Family, name string, blob []byte) []byte {
	dst, m := appendFamName(dst, OpRestore, id, fam, name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	dst = append(dst, blob...)
	return endFrame(dst, m)
}

// AppendCheckpointReq appends an OpCheckpoint request frame: write the
// server's checkpoint file now (fails as a typed error when the server runs
// without one configured).
func AppendCheckpointReq(dst []byte, id uint32) []byte {
	dst, m := beginFrame(dst)
	return endFrame(appendHeader(dst, byte(OpCheckpoint), id), m)
}

// AppendOpsStatsReq appends an OpOpsStats request frame: report the
// server's lifecycle sweeper and memory-budget counters (fails as a typed
// error when the server runs without an ops manager configured).
func AppendOpsStatsReq(dst []byte, id uint32) []byte {
	dst, m := beginFrame(dst)
	return endFrame(appendHeader(dst, byte(OpOpsStats), id), m)
}

// AppendOKBytes appends a success response whose body is an opaque byte
// blob (the OpSnapshot response). Callers cap len(body) so the frame stays
// within MaxFrame.
func AppendOKBytes(dst []byte, id uint32, body []byte) []byte {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, StatusOK, id)
	dst = append(dst, body...)
	return endFrame(dst, m)
}

// AppendBatch appends an OpBatch request frame carrying len(items) 8-byte
// items. Callers cap len(items) at MaxBatchItems (the client's Batch
// splits); items beyond that would exceed MaxFrame and be rejected by the
// receiver.
func AppendBatch(dst []byte, id uint32, fam Family, name string, items []uint64) []byte {
	dst, m := appendFamName(dst, OpBatch, id, fam, name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = binary.LittleEndian.AppendUint64(dst, it)
	}
	return endFrame(dst, m)
}

// AppendQuery appends an OpQuery request frame. arg is consumed only for
// kinds with NeedsArg (phi/value bits, or the Count-Min key).
func AppendQuery(dst []byte, id uint32, fam Family, q Query, name string, arg uint64) []byte {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, byte(OpQuery), id)
	dst = append(dst, byte(fam), byte(q))
	dst = appendName(dst, name)
	if NeedsArg(q) {
		dst = binary.LittleEndian.AppendUint64(dst, arg)
	}
	return endFrame(dst, m)
}

// AppendOK appends an empty-body success response frame.
func AppendOK(dst []byte, id uint32) []byte {
	dst, m := beginFrame(dst)
	return endFrame(appendHeader(dst, StatusOK, id), m)
}

// AppendOKU32 appends a success response with a uint32 body (batch acks).
func AppendOKU32(dst []byte, id uint32, v uint32) []byte {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, StatusOK, id)
	dst = binary.LittleEndian.AppendUint32(dst, v)
	return endFrame(dst, m)
}

// AppendOKU64 appends a success response with a uint64 body (counts, or
// float64 bits for estimates/quantiles/ranks).
func AppendOKU64(dst []byte, id uint32, v uint64) []byte {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, StatusOK, id)
	dst = binary.LittleEndian.AppendUint64(dst, v)
	return endFrame(dst, m)
}

// AppendError appends an error response. Messages are truncated to fit
// MaxFrame.
func AppendError(dst []byte, id uint32, msg string) []byte {
	const maxMsg = 1 << 10
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, StatusError, id)
	dst = append(dst, msg...)
	return endFrame(dst, m)
}

// AppendOKNames appends the OpNames response: uint32 count, then uint16
// length + bytes per name. The list is truncated to whatever fits MaxFrame
// (tens of thousands of names) — the server must never emit a frame its
// own protocol forbids, which would poison the client connection.
func AppendOKNames(dst []byte, id uint32, names []string) []byte {
	dst, m := beginFrame(dst)
	dst = appendHeader(dst, StatusOK, id)
	countAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	count := uint32(0)
	budget := MaxFrame - headerLen - 4
	for _, n := range names {
		if budget -= 2 + len(n); budget < 0 {
			break
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(n)))
		dst = append(dst, n...)
		count++
	}
	binary.LittleEndian.PutUint32(dst[countAt:], count)
	return endFrame(dst, m)
}

// Info is the OpInfo response, mirroring the registry's SketchInfo: the
// Spec in force, the writer-lane count, and the live stats — the staleness
// bounds (a served merged query lags by exactly the in-process Relaxation =
// S·r), the view's refresh lag, and the window's rotations and live-interval
// age (zero for a plane that is off).
type Info struct {
	Spec            Spec
	Writers         int
	Relaxation      uint64
	ShardRelaxation uint64
	Eager           bool
	ViewLagNs       uint64
	WindowRotations uint64
	WindowLiveAgeNs uint64
}

// AppendOKInfo appends the OpInfo success response: seven words — Eager as
// 0 or 1, then the other live stats in declaration order — then the Spec.
func AppendOKInfo(dst []byte, id uint32, inf *Info) []byte {
	dst, m := beginFrame(dst)
	var eager int64
	if inf.Eager {
		eager = 1
	}
	dst = appendWords(appendHeader(dst, StatusOK, id), eager, int64(inf.Writers), int64(inf.Relaxation),
		int64(inf.ShardRelaxation), int64(inf.ViewLagNs), int64(inf.WindowRotations), int64(inf.WindowLiveAgeNs))
	return endFrame(AppendSpec(dst, &inf.Spec), m)
}

// OpsStats is the OpOpsStats response: the server-side lifecycle sweeper's
// counters (sweeps run, idle-TTL evictions, memory-budget sheds and
// shrinks) and its latest gauges (estimated resident sketch bytes, the
// configured budget, and the live sketch count).
type OpsStats struct {
	Sweeps        int64
	Evictions     int64
	BudgetSheds   int64
	BudgetShrinks int64
	ResidentBytes int64
	BudgetBytes   int64
	Sketches      int64
}

const opsStatsLen = 7 * 8

// AppendOKOpsStats appends the OpOpsStats success response.
func AppendOKOpsStats(dst []byte, id uint32, st OpsStats) []byte {
	dst, m := beginFrame(dst)
	dst = appendWords(appendHeader(dst, StatusOK, id), st.Sweeps, st.Evictions, st.BudgetSheds,
		st.BudgetShrinks, st.ResidentBytes, st.BudgetBytes, st.Sketches)
	return endFrame(dst, m)
}

// ParseOpsStats decodes an OpOpsStats response body.
func ParseOpsStats(body []byte) (OpsStats, error) {
	if len(body) != opsStatsLen {
		return OpsStats{}, ErrTruncated
	}
	c := cursor{b: body}
	st := OpsStats{
		Sweeps:        int64(c.u64()),
		Evictions:     int64(c.u64()),
		BudgetSheds:   int64(c.u64()),
		BudgetShrinks: int64(c.u64()),
		ResidentBytes: int64(c.u64()),
		BudgetBytes:   int64(c.u64()),
		Sketches:      int64(c.u64()),
	}
	return st, c.done()
}

// Request is one parsed request. Name and Items are views into the parse
// buffer and are valid only until the buffer's next reuse; Items holds
// NumItems() packed 8-byte words.
type Request struct {
	Op     Op
	ID     uint32
	Family Family
	Query  Query
	Name   []byte
	// Arg is the query argument (float bits / key) for kinds with NeedsArg.
	Arg uint64
	// Spec is the OpApply body.
	Spec  Spec
	Items []byte
	// Blob is the OpRestore snapshot payload (a view into the parse buffer,
	// like Name and Items).
	Blob []byte
}

// NumItems returns the batch item count.
func (r *Request) NumItems() int { return len(r.Items) / ItemSize }

// Item returns batch item i as its 8-byte word.
func (r *Request) Item(i int) uint64 {
	return binary.LittleEndian.Uint64(r.Items[i*ItemSize:])
}

// cursor is a bounds-checked sequential reader over a payload body; the
// first error sticks.
type cursor struct {
	b   []byte
	err error
}

// next returns the next n bytes, or nil once an error has stuck; reading
// past the end is ErrTruncated.
func (c *cursor) next(n int) []byte {
	if c.err == nil && len(c.b) < n {
		c.err = ErrTruncated
	}
	if c.err != nil {
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) u8() byte {
	if b := c.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) name() []byte {
	n := int(c.u8())
	if c.err == nil && n == 0 {
		c.err = ErrBadName
	}
	return c.next(n)
}

func (c *cursor) family() Family {
	f := Family(c.u8())
	if c.err == nil && !f.Valid() {
		c.err = ErrBadFamily
	}
	return f
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return ErrTrailing
	}
	return nil
}

// ParseRequest parses one request payload. The returned Request's ID is
// populated whenever the header was readable, even on error, so servers can
// address their error response. Never panics on any input.
func ParseRequest(p []byte) (Request, error) {
	var req Request
	if len(p) < headerLen {
		return req, ErrTruncated
	}
	req.Op = Op(p[0])
	req.ID = binary.LittleEndian.Uint32(p[1:5])
	if req.Op < OpPing || req.Op >= opMax {
		return req, ErrBadOp
	}
	if req.Op == opMergeRemote {
		return req, ErrRemovedOp
	}
	c := cursor{b: p[headerLen:]}
	switch req.Op {
	case OpPing, OpNames, OpCheckpoint, OpOpsStats:
		// empty body
	case OpDrop, OpInfo, OpSnapshot:
		req.Family = c.family()
		req.Name = c.name()
	case OpApply:
		// Family 0 addresses every family registered under the name.
		if req.Family = Family(c.u8()); c.err == nil && req.Family != 0 && !req.Family.Valid() {
			return req, ErrBadFamily
		}
		req.Name = c.name()
		if c.err == nil {
			req.Spec, c.b, c.err = ParseSpec(c.b)
		}
	case OpRestore:
		req.Family = c.family()
		req.Name = c.name()
		n := c.u32()
		if c.err == nil {
			if n > MaxBlob || int(n) != len(c.b) {
				return req, ErrBadBlob
			}
			req.Blob = c.b
			c.b = nil
		}
	case OpBatch:
		req.Family = c.family()
		req.Name = c.name()
		n := c.u32()
		if c.err == nil {
			if n > MaxBatchItems || int(n)*ItemSize != len(c.b) {
				return req, ErrBadCount
			}
			req.Items = c.b
			c.b = nil
		}
	case OpQuery:
		req.Family = c.family()
		req.Query = Query(c.u8())
		if c.err == nil && (req.Query < QueryEstimate || req.Query >= queryMax) {
			return req, ErrBadQuery
		}
		req.Name = c.name()
		if NeedsArg(req.Query) {
			req.Arg = c.u64()
		}
	}
	return req, c.done()
}

// ParseResponse splits one response payload into status, id and body view.
func ParseResponse(p []byte) (status byte, id uint32, body []byte, err error) {
	if len(p) < headerLen {
		return 0, 0, nil, ErrTruncated
	}
	status = p[0]
	if status != StatusOK && status != StatusError {
		return 0, 0, nil, ErrBadStatus
	}
	return status, binary.LittleEndian.Uint32(p[1:5]), p[headerLen:], nil
}

// ParseNames decodes an OpNames response body.
func ParseNames(body []byte) ([]string, error) {
	c := cursor{b: body}
	n := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	names := make([]string, 0, min(int(n), 1024))
	for i := 0; i < int(n); i++ {
		if c.err != nil {
			return nil, c.err
		}
		if len(c.b) < 2 {
			return nil, ErrTruncated
		}
		l := int(binary.LittleEndian.Uint16(c.b))
		c.b = c.b[2:]
		if len(c.b) < l {
			return nil, ErrTruncated
		}
		names = append(names, string(c.b[:l]))
		c.b = c.b[l:]
	}
	return names, c.done()
}

// ParseInfo decodes an OpInfo response body.
func ParseInfo(body []byte) (Info, error) {
	c := cursor{b: body}
	inf := Info{Eager: c.u64() == 1}
	inf.Writers = int(c.u64())
	inf.Relaxation, inf.ShardRelaxation = c.u64(), c.u64()
	inf.ViewLagNs, inf.WindowRotations, inf.WindowLiveAgeNs = c.u64(), c.u64(), c.u64()
	if c.err == nil {
		inf.Spec, c.b, c.err = ParseSpec(c.b)
	}
	return inf, c.done()
}
