package overlay

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// retraceAll is the full-sweep restore that the re-trace test replaced,
// kept as the oracle: every flow re-traced against the healed topology.
func (r *Router) retraceAll(st *RepairStats) error {
	all := make([]int32, len(r.flows))
	for fi := range all {
		all[fi] = int32(fi)
	}
	return r.rerouteAffected(st, all)
}

// oracleRestore heals a link (node == false) or node on r and re-traces
// every flow.
func oracleRestore(r *Router, node bool, elem int) (RepairStats, error) {
	st := RepairStats{Kind: "link-restore", Element: elem}
	var err error
	if node {
		st.Kind = "node-restore"
		err = r.topo.RestoreNode(model.NodeID(elem))
	} else {
		err = r.topo.RestoreLink(elem)
	}
	if err != nil {
		return RepairStats{}, err
	}
	return st, r.retraceAll(&st)
}

// randomDirectedWorkload builds a one-way overlay — a directed ring plus
// random chords, some doubled into parallel u→v links — and a flow
// population over it. The same seed always yields the same instance.
func randomDirectedWorkload(seed int64, nodes, chords, nFlows, subsPerFlow int) (*Topology, []float64, []FlowSpec) {
	rng := rand.New(rand.NewSource(seed))
	tp := NewTopology(nodes)
	for b := 0; b < nodes; b++ {
		_, _ = tp.AddLink(model.NodeID(b), model.NodeID((b+1)%nodes), 1e6)
	}
	for k := 0; k < chords; k++ {
		u, v := model.NodeID(rng.Intn(nodes)), model.NodeID(rng.Intn(nodes))
		if u == v {
			continue
		}
		_, _ = tp.AddLink(u, v, 1e6)
		if rng.Intn(4) == 0 {
			_, _ = tp.AddLink(u, v, 1e6)
		}
	}
	caps := uniformCaps(nodes, 1e5)
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{Name: "f", Source: model.NodeID(rng.Intn(nodes)), RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2}
		for s := 0; s < subsPerFlow; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(rng.Intn(nodes)),
				MaxConsumers: 10, CostPerConsumer: 5, Utility: utility.NewLog(5),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// healCoverage counts the corner cases the directed property test must
// reach.
type healCoverage struct {
	restores, multiDown, deadEndpoint, parallel, prunedAtNode, nodeRestores int
}

// TestRestoreMatchesFullRetraceDirected drives two Routers over identical
// one-way topologies through interleaved link and node kills and restores
// with several elements down at once. One restores through the re-trace
// test, the other through the full-sweep oracle; after every event their
// trees, Rerouted counts and TakeDelta contents must be identical, and
// the production Router's trees must match from-scratch routing. Each
// restore must also re-trace exactly the flows the rule picks when
// recomputed from point-to-point shortest paths.
func TestRestoreMatchesFullRetraceDirected(t *testing.T) {
	var cov healCoverage
	for seed := int64(1); seed <= 40; seed++ {
		runDirectedHeal(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.multiDown == 0 || cov.deadEndpoint == 0 || cov.parallel == 0 || cov.prunedAtNode == 0 || cov.nodeRestores == 0 {
		t.Fatalf("corner cases not all exercised: %+v", cov)
	}
}

func runDirectedHeal(t *testing.T, seed int64, cov *healCoverage) {
	const nodes = 40
	build := func() *Router {
		tp, caps, flows := randomDirectedWorkload(seed, nodes, 2*nodes, 6, 3)
		r, err := NewRouter(tp, caps, flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return r
	}
	r, o := build(), build()
	tp := r.Topology()
	rng := rand.New(rand.NewSource(seed * 7919))

	// Prune about a third of the classes up front so their nodes become
	// killable while a (pruned) class still sits there.
	consumers := make([]int, len(r.Problem().Classes))
	for j := range consumers {
		if rng.Intn(3) != 0 {
			consumers[j] = 1
		}
	}
	for _, rt := range []*Router{r, o} {
		if _, err := rt.PruneDeadSubscribers(consumers); err != nil {
			t.Fatalf("seed %d: prune: %v", seed, err)
		}
	}
	expectSameRouting(t, seed, -1, r, o)

	anchored := make([]bool, nodes)
	prunedAt := make([]bool, nodes)
	for fi, fs := range r.flows {
		anchored[fs.Source] = true
		for k, cs := range fs.Classes {
			if r.pruned[r.classOff[fi]+k] {
				prunedAt[cs.Node] = true
			} else {
				anchored[cs.Node] = true
			}
		}
	}
	var deadLinks, deadNodes []int
	for ev := 0; ev < 120; ev++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(deadLinks) > 0, op == 1 && len(deadNodes) > 0:
			node := op == 1
			list := &deadLinks
			if node {
				list = &deadNodes
			}
			k := rng.Intn(len(*list))
			elem := (*list)[k]
			*list = append((*list)[:k], (*list)[k+1:]...)
			noteRestore(r, node, elem, len(deadLinks)+len(deadNodes), prunedAt, cov)

			depths := subscriberDistances(t, r)
			before := snapshotTrees(r)
			var st RepairStats
			var err error
			if node {
				st, err = r.RestoreNode(model.NodeID(elem))
			} else {
				st, err = r.RestoreLink(elem)
			}
			if err != nil {
				t.Fatalf("seed %d event %d: restore: %v", seed, ev, err)
			}
			ost, err := oracleRestore(o, node, elem)
			if err != nil {
				t.Fatalf("seed %d event %d: oracle restore: %v", seed, ev, err)
			}
			if st.Rerouted != ost.Rerouted {
				t.Fatalf("seed %d event %d: %s %d rerouted %d flows, full re-trace %d",
					seed, ev, st.Kind, elem, st.Rerouted, ost.Rerouted)
			}
			expectRetracedOnly(t, r, st, before)
			if want := healCandidates(t, r, node, elem, depths); !equalIDs(r.heal.sel, want) {
				t.Fatalf("seed %d event %d: %s %d re-traced %v, the rule picks %v", seed, ev, st.Kind, elem, r.heal.sel, want)
			}
		case op == 2:
			li := rng.Intn(tp.LinkCount())
			if tp.deadLink != nil && tp.deadLink[li] {
				continue
			}
			_, err := r.RepairLink(li)
			_, oerr := o.RepairLink(li)
			if (err == nil) != (oerr == nil) || (err != nil && !errors.Is(err, ErrNoPath)) {
				t.Fatalf("seed %d event %d: repair link %d: %v vs oracle %v", seed, ev, li, err, oerr)
			}
			if err == nil {
				deadLinks = append(deadLinks, li)
			}
		default:
			b := model.NodeID(rng.Intn(nodes))
			if anchored[b] || !tp.NodeAlive(b) {
				continue
			}
			_, err := r.RepairNode(b)
			_, oerr := o.RepairNode(b)
			if (err == nil) != (oerr == nil) || (err != nil && !errors.Is(err, ErrNoPath)) {
				t.Fatalf("seed %d event %d: repair node %d: %v vs oracle %v", seed, ev, b, err, oerr)
			}
			if err == nil {
				deadNodes = append(deadNodes, int(b))
			}
		}
		expectSameRouting(t, seed, ev, r, o)
		checkRouterInvariants(t, r)
	}
}

// pathLen is the hop count of a shortest src→dst path, or -1 without one.
func pathLen(tp *Topology, src, dst model.NodeID) int {
	p, err := tp.ShortestPath(src, dst)
	if err != nil {
		return -1
	}
	return len(p)
}

// subscriberDistances returns every unpruned class's distance from its
// flow's source, computed afresh (-1 for pruned classes).
func subscriberDistances(t *testing.T, r *Router) []int {
	t.Helper()
	d := make([]int, len(r.pruned))
	for fi, fs := range r.flows {
		for k, cs := range fs.Classes {
			j := r.classOff[fi] + k
			d[j] = -1
			if !r.pruned[j] {
				if d[j] = pathLen(r.topo, fs.Source, cs.Node); d[j] < 0 {
					t.Fatalf("flow %d class %d unreachable", fi, j)
				}
			}
		}
	}
	return d
}

// healCandidates recomputes, from point-to-point shortest paths over the
// healed topology, the flows a restore must re-trace: those with an
// unpruned subscriber x such that some shortest source→x path crosses the
// healed element, given the pre-restore distances in depths.
func healCandidates(t *testing.T, r *Router, node bool, elem int, depths []int) []int32 {
	t.Helper()
	tp := r.topo
	var tails []model.NodeID
	var head model.NodeID
	if node {
		head = model.NodeID(elem)
		for li, l := range tp.links {
			if l.To == head && tp.LinkAlive(li) {
				tails = append(tails, l.From)
			}
		}
	} else if tp.LinkAlive(elem) {
		head = tp.links[elem].To
		tails = []model.NodeID{tp.links[elem].From}
	}
	var want []int32
	for fi, fs := range r.flows {
		toTail := -1
		for _, a := range tails {
			if d := pathLen(tp, fs.Source, a); d >= 0 && (toTail < 0 || d < toTail) {
				toTail = d
			}
		}
		pick := node && fs.Source == head
		for k, cs := range fs.Classes {
			j := r.classOff[fi] + k
			if r.pruned[j] {
				continue
			}
			if node && cs.Node == head {
				pick = true
			}
			if fromHead := pathLen(tp, head, cs.Node); toTail >= 0 && fromHead >= 0 && toTail+1+fromHead <= depths[j] {
				pick = true
			}
		}
		if pick {
			want = append(want, int32(fi))
		}
	}
	return want
}

// noteRestore records which corner cases a restore about to happen hits.
func noteRestore(r *Router, node bool, elem, stillDown int, prunedAt []bool, cov *healCoverage) {
	tp := r.Topology()
	cov.restores++
	if stillDown > 0 {
		cov.multiDown++
	}
	if node {
		cov.nodeRestores++
		if prunedAt[elem] {
			cov.prunedAtNode++
		}
		return
	}
	l := tp.links[elem]
	if !tp.NodeAlive(l.From) || !tp.NodeAlive(l.To) {
		cov.deadEndpoint++
	}
	for _, li := range tp.out[l.From] {
		if int(li) != elem && tp.links[li].To == l.To {
			cov.parallel++
			break
		}
	}
}

// expectSameRouting compares the production Router against the oracle:
// identical trees and identical pending routing deltas (both are taken).
func expectSameRouting(t *testing.T, seed int64, ev int, r, o *Router) {
	t.Helper()
	for fi := range r.trees {
		if !r.trees[fi].equal(o.trees[fi]) {
			t.Fatalf("seed %d event %d: flow %d tree %+v, full re-trace %+v", seed, ev, fi, r.trees[fi], o.trees[fi])
		}
	}
	d, od := r.TakeDelta(), o.TakeDelta()
	if !equalIDs(d.Flows, od.Flows) || !equalIDs(d.Nodes, od.Nodes) || !equalIDs(d.Links, od.Links) {
		t.Fatalf("seed %d event %d: delta %+v, full re-trace %+v", seed, ev, d, od)
	}
}
