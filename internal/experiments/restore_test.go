package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/overlay"
)

// sameSlice reports whether two slices share identity (same backing
// array and length).
func sameSlice[T comparable](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// x11Router routes X11's seed-1 instance at its default size and returns
// the router, the flow specs and the anchored (non-failable) nodes.
func x11Router(tb testing.TB) (*overlay.Router, []overlay.FlowSpec, []bool, *rand.Rand) {
	cc := ChurnConfig{}.normalized()
	rng := rand.New(rand.NewSource(1))
	tp, caps, flows := churnWorkload(rng, cc)
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		tb.Fatal(err)
	}
	anchored := make([]bool, cc.TopoNodes)
	for _, fs := range flows {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}
	return r, flows, anchored, rng
}

// TestRestoreWorkGateX11 is the restore path's deterministic work gate: on
// X11's seed-1 10k-node instance, 30 fail/restore pairs alternate between
// loaded links and relay nodes. Each restore may run at most its two
// distance BFS plus one per re-traced flow, and all restores together
// at most 10% of the 100-per-restore full sweep. After every restore the
// trees that changed number exactly Rerouted and every other tree keeps
// its slices; after every tenth, each tree equals a from-scratch
// BuildTree (TestRestoreMatchesFullRetraceDirected checks every restore
// against the full sweep on smaller overlays).
func TestRestoreWorkGateX11(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node gate skipped in -short")
	}
	const pairs = 30
	r, flows, anchored, rng := x11Router(t)
	tp := r.Topology()
	totalBFS := 0
	for pair := 0; pair < pairs; pair++ {
		kind := "link"
		if pair%2 == 1 {
			kind = "node"
		}
		_, elem, err := churnEvent(r, rng, kind, false, -1, anchored)
		if err != nil {
			t.Fatalf("pair %d: %v", pair, err)
		}
		r.TakeDelta()
		before := make([]overlay.Tree, len(flows))
		for fi := range flows {
			before[fi] = r.Tree(model.FlowID(fi))
		}
		st, _, err := churnEvent(r, rng, kind, true, elem, anchored)
		if err != nil {
			t.Fatalf("pair %d: restore %s %d: %v", pair, kind, elem, err)
		}
		r.TakeDelta()
		// Re-traced flows that share a source share its BFS, so Affected
		// bounds the per-source runs from above.
		if st.BFSRuns > 2+st.Affected {
			t.Fatalf("pair %d: %s %d ran %d BFS for %d re-traced flows", pair, st.Kind, elem, st.BFSRuns, st.Affected)
		}
		totalBFS += st.BFSRuns

		changed := 0
		for fi := range flows {
			cur, old := r.Tree(model.FlowID(fi)), before[fi]
			if !slices.Equal(cur.Links, old.Links) || !slices.Equal(cur.Nodes, old.Nodes) {
				changed++
			} else if !sameSlice(cur.Links, old.Links) || !sameSlice(cur.Nodes, old.Nodes) {
				t.Fatalf("pair %d: flow %d kept its route but its tree was re-allocated", pair, fi)
			}
		}
		if changed != st.Rerouted || st.Rerouted > st.Affected {
			t.Fatalf("pair %d: %d trees changed, stats rerouted %d of %d affected", pair, changed, st.Rerouted, st.Affected)
		}
		if pair%10 == 9 {
			sc := overlay.NewScratch(tp)
			for fi, fs := range flows {
				subs := make([]model.NodeID, len(fs.Classes))
				for k, cs := range fs.Classes {
					subs[k] = cs.Node
				}
				want, _, err := tp.BuildTreeInto(sc, fs.Source, subs, overlay.Tree{Source: -1})
				if err != nil {
					t.Fatalf("pair %d: from-scratch route of flow %d: %v", pair, fi, err)
				}
				if cur := r.Tree(model.FlowID(fi)); !slices.Equal(cur.Links, want.Links) || !slices.Equal(cur.Nodes, want.Nodes) {
					t.Fatalf("pair %d: flow %d tree differs from a from-scratch BuildTree", pair, fi)
				}
			}
		}
	}
	sweep := pairs * len(flows)
	t.Logf("%d restores ran %d BFS; the full sweep ran %d", pairs, totalBFS, sweep)
	if 10*totalBFS > sweep {
		t.Fatalf("restores ran %d BFS, more than 10%% of the %d-BFS full sweep", totalBFS, sweep)
	}
}

// churnElem is a failable overlay element: a relay node or a link.
type churnElem struct {
	node bool
	id   int
}

// apply fails (heal false) or restores e through r.
func (e churnElem) apply(r *overlay.Router, heal bool) (overlay.RepairStats, error) {
	switch {
	case e.node && heal:
		return r.RestoreNode(model.NodeID(e.id))
	case e.node:
		return r.RepairNode(model.NodeID(e.id))
	case heal:
		return r.RestoreLink(e.id)
	default:
		return r.RepairLink(e.id)
	}
}

// x11ChurnElems routes X11's seed-1 instance and picks 32 survivable
// failures on it, alternating loaded links and relay nodes, healing each
// again, so a benchmark can replay them as fail/restore pairs.
func x11ChurnElems(tb testing.TB) (*overlay.Router, []churnElem) {
	r, _, anchored, rng := x11Router(tb)
	var elems []churnElem
	for k := 0; k < 32; k++ {
		kind := "link"
		if k%2 == 1 {
			kind = "node"
		}
		_, id, err := churnEvent(r, rng, kind, false, -1, anchored)
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := churnEvent(r, rng, kind, true, id, anchored); err != nil {
			tb.Fatal(err)
		}
		elems = append(elems, churnElem{node: kind == "node", id: id})
	}
	r.TakeDelta()
	return r, elems
}

// BenchmarkRouterRestoreX11 times one restore on X11's seed-1 10k-node
// instance, cycling through 16 loaded links and 16 relay nodes; the
// failure that precedes each restore runs with the timer stopped.
func BenchmarkRouterRestoreX11(b *testing.B) {
	r, elems := x11ChurnElems(b)
	bfs, affected := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := elems[i%len(elems)]
		b.StopTimer()
		if _, err := e.apply(r, false); err != nil {
			b.Fatal(err)
		}
		r.TakeDelta()
		b.StartTimer()
		st, err := e.apply(r, true)
		if err != nil {
			b.Fatal(err)
		}
		r.TakeDelta()
		bfs += st.BFSRuns
		affected += st.Affected
	}
	b.ReportMetric(float64(bfs)/float64(b.N), "bfs/op")
	b.ReportMetric(float64(affected)/float64(b.N), "affected/op")
}
