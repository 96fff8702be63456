package server

import (
	"fmt"

	"fastsketches/internal/wire"
)

// query serves one OpQuery through the zero-alloc QueryInto plane — one
// sketch-cache hit, then the family's query function (see families.go): the
// connection's per-family accumulator is reset and every shard snapshot
// (plus any legacy resharding state) folded into it, then the scalar is
// read off. The served result is exactly what an in-process caller of
// QueryInto would read at the same instant, including the staleness
// contract: all but at most S·r completed updates are reflected
// (transiently S_old·r + S_new·r while a resize drains), and a Count-Min
// per-key Count keeps the tighter single-shard bound r.
// The Window* kinds answer over the sketch's declared sliding window and
// DecayedCount over the Count-Min time-decayed plane, through the same
// reusable per-connection accumulators (WindowQueryInto resets and refolds
// exactly like QueryInto). A windowed query on a sketch without a declared
// window is a typed error, not a silent fall-through to the cumulative
// stream.
func (cs *connState) query(req *wire.Request, out []byte) []byte {
	f := &families[req.Family]
	if !f.answers(req.Query) {
		// Refused before the sketch is resolved: a query the family cannot
		// answer must not create an empty tenant as a side effect.
		return wire.AppendError(out, req.ID,
			fmt.Sprintf("query kind %d unsupported for family %s", req.Query, req.Family))
	}
	sk, err := cs.sketch(req.Family, req.Name)
	if err != nil {
		return wire.AppendError(out, req.ID, err.Error())
	}
	q := cs.queriers[req.Family]
	if q == nil {
		q = f.querier()
		cs.queriers[req.Family] = q
	}
	v, missing := q(sk, req.Query, req.Arg)
	if missing != "" {
		return wire.AppendError(out, req.ID,
			fmt.Sprintf("no %s declared on %s/%s", missing, req.Family, req.Name))
	}
	return wire.AppendOKU64(out, req.ID, v)
}
