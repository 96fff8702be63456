package server

import (
	"strings"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/shard"
	"fastsketches/internal/wire"
)

// TestFamilyQueryMatrix sends every (family, wire.Query kind) pair — ranging
// over the server's family table, so a future row is covered for free — and
// requires each either to answer or to fail with a typed error, never to
// panic or hang up: a kind the family does not serve is "unsupported" (and
// creates nothing), a windowed kind on an unwindowed sketch is "no window
// declared", and once a window is declared every served kind answers.
func TestFamilyQueryMatrix(t *testing.T) {
	_, reg, addr := startServer(t, fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	windowKinds := map[wire.Query]bool{
		wire.QueryWindowEstimate: true, wire.QueryWindowQuantile: true,
		wire.QueryWindowN: true, wire.QueryWindowCount: true,
	}
	const name = "matrix"
	// The table has a row for every family wire.ParseRequest lets through.
	if n := wire.Family(len(families)); !(n - 1).Valid() || n.Valid() {
		t.Fatalf("family table has %d rows; the wire's families end elsewhere", len(families)-1)
	}
	for id := range families {
		fam := wire.Family(id)
		if families[id].open == nil {
			continue // index 0
		}
		t.Run(fam.String(), func(t *testing.T) {
			c := dialT(t, addr)
			c.mustOK(wire.AppendBatch(nil, c.nextID(), fam, name, []uint64{1, 2, 3}))
			// query expects status OK with an 8-byte result when want is empty,
			// an error naming want otherwise.
			query := func(sketch string, q wire.Query, want ...string) {
				t.Helper()
				status, body := c.roundTrip(wire.AppendQuery(nil, c.nextID(), fam, q, sketch, 1))
				if len(want) == 0 {
					if status != wire.StatusOK || len(body) != 8 {
						t.Errorf("kind %d: status %d body %q, want an 8-byte answer", q, status, body)
					}
					return
				}
				for _, w := range want {
					if status == wire.StatusError && strings.Contains(string(body), w) {
						return
					}
				}
				t.Errorf("kind %d: status %d body %q, want an error naming one of %q", q, status, body, want)
			}
			// Kinds past the protocol's last are refused by the wire parser;
			// sweeping well beyond it keeps the test ignorant of the count.
			var served, windowed []wire.Query
			for q := wire.Query(1); q < 64; q++ {
				switch {
				case !families[id].answers(q):
					query("ghost", q, "unsupported for family "+fam.String(), wire.ErrBadQuery.Error())
				case windowKinds[q]:
					query(name, q, "no window declared on "+fam.String()+"/"+name)
					windowed = append(windowed, q)
				case q == wire.QueryDecayedCount:
					query(name, q, "no decayed window declared on "+fam.String()+"/"+name)
				default:
					query(name, q)
				}
				if families[id].answers(q) {
					served = append(served, q)
				}
			}
			if len(windowed) == 0 {
				t.Errorf("family %s serves no windowed query kind", fam)
			}
			if _, ok := reg.Info(fam.String(), "ghost"); ok {
				t.Error("an unsupported query created the sketch it named")
			}
			// Declare a window (decay lands on the families that support it):
			// every served kind now answers.
			c.mustOK(wire.AppendApply(nil, c.nextID(), 0, name, &wire.Spec{
				Window: &shard.WindowConfig{Interval: time.Hour, Slots: 2, Decay: 0.5},
			}))
			for _, q := range served {
				query(name, q)
			}
		})
	}
}
