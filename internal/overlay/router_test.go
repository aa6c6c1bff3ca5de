package overlay

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// randomRouterWorkload builds a random heterogeneous topology and a flow
// population with subscribers spread over it.
func randomRouterWorkload(rng *rand.Rand, nodes, nFlows, subsPerFlow int) (*Topology, []float64, []FlowSpec) {
	tp := RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 5e4 + rng.Float64()*1e5
	}
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{
			Name:     "f" + string(rune('a'+fi%26)) + string(rune('0'+fi/26)),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < subsPerFlow; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name:            "c",
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// sameSlice reports whether two slices share identity (same backing
// array and length) — the no-spurious-reroute guarantee.
func sameSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// checkRouterInvariants verifies that every Router tree equals a
// from-scratch BuildTree over the mutated topology, and that the problem
// coefficients and reverse indexes mirror the trees exactly.
func checkRouterInvariants(t *testing.T, r *Router) {
	t.Helper()
	p := r.Problem()
	var subs []model.NodeID
	for fi := range p.Flows {
		subs = subs[:0]
		off := r.classOff[fi]
		for k, cs := range r.flows[fi].Classes {
			if !r.pruned[off+k] {
				subs = append(subs, cs.Node)
			}
		}
		sc := NewScratch(r.Topology())
		want, _, err := r.Topology().BuildTreeInto(sc, r.flows[fi].Source, subs, Tree{Source: -1})
		if err != nil {
			t.Fatalf("from-scratch route of flow %d failed: %v", fi, err)
		}
		got := r.Tree(model.FlowID(fi))
		if !got.equal(want) {
			t.Fatalf("flow %d tree diverged from from-scratch BuildTree:\n got %+v\nwant %+v", fi, got, want)
		}
		// Recorded subscriber depths are the from-scratch BFS distances.
		for k, cs := range r.flows[fi].Classes {
			if j := off + k; !r.pruned[j] && r.depth[j] != sc.hops(cs.Node) {
				t.Fatalf("flow %d class %d: recorded depth %d, BFS distance %d", fi, j, r.depth[j], sc.hops(cs.Node))
			}
		}
		// Coefficients mirror the tree.
		for _, li := range got.Links {
			if p.Links[li].FlowCost[model.FlowID(fi)] != r.flows[fi].LinkCost {
				t.Fatalf("flow %d link %d missing/incorrect cost", fi, li)
			}
		}
		for _, b := range got.Nodes {
			if p.Nodes[b].FlowCost[model.FlowID(fi)] != r.flows[fi].NodeCost {
				t.Fatalf("flow %d node %d missing/incorrect cost", fi, b)
			}
		}
	}
	// No stray coefficients or index entries beyond the trees.
	nLink, nNode := 0, 0
	for li := range p.Links {
		nLink += len(p.Links[li].FlowCost)
		if len(p.Links[li].FlowCost) != len(r.FlowsThroughLink(li)) {
			t.Fatalf("link %d: %d coefficients vs %d indexed flows", li, len(p.Links[li].FlowCost), len(r.FlowsThroughLink(li)))
		}
	}
	for b := range p.Nodes {
		nNode += len(p.Nodes[b].FlowCost)
		if len(p.Nodes[b].FlowCost) != len(r.FlowsThroughNode(model.NodeID(b))) {
			t.Fatalf("node %d: %d coefficients vs %d indexed flows", b, len(p.Nodes[b].FlowCost), len(r.FlowsThroughNode(model.NodeID(b))))
		}
	}
	wantLink, wantNode := 0, 0
	for fi := range p.Flows {
		wantLink += len(r.Tree(model.FlowID(fi)).Links)
		wantNode += len(r.Tree(model.FlowID(fi)).Nodes)
	}
	if nLink != wantLink || nNode != wantNode {
		t.Fatalf("coefficient totals (links %d, nodes %d) != tree totals (%d, %d)", nLink, nNode, wantLink, wantNode)
	}
}

// expectIndexEqual compares every accessor of got against a freshly built
// index over the same problem.
func expectIndexEqual(t *testing.T, p *model.Problem, got *model.Index) {
	t.Helper()
	want := model.NewIndex(p)
	for i := range p.Flows {
		fid := model.FlowID(i)
		if !equalIDs(got.NodesByFlow(fid), want.NodesByFlow(fid)) {
			t.Fatalf("flow %d NodesByFlow: got %v want %v", i, got.NodesByFlow(fid), want.NodesByFlow(fid))
		}
		if !equalIDs(got.LinksByFlow(fid), want.LinksByFlow(fid)) {
			t.Fatalf("flow %d LinksByFlow: got %v want %v", i, got.LinksByFlow(fid), want.LinksByFlow(fid))
		}
		if !equalFloats(got.NodeCostsByFlow(fid), want.NodeCostsByFlow(fid)) {
			t.Fatalf("flow %d NodeCostsByFlow mismatch", i)
		}
		if !equalFloats(got.LinkCostsByFlow(fid), want.LinkCostsByFlow(fid)) {
			t.Fatalf("flow %d LinkCostsByFlow mismatch", i)
		}
		g, w := got.ClassesByFlowNode(fid), want.ClassesByFlowNode(fid)
		if len(g) != len(w) {
			t.Fatalf("flow %d ClassesByFlowNode length %d != %d", i, len(g), len(w))
		}
		for k := range g {
			if !equalIDs(g[k], w[k]) {
				t.Fatalf("flow %d ClassesByFlowNode[%d]: got %v want %v", i, k, g[k], w[k])
			}
		}
	}
	for b := range p.Nodes {
		bid := model.NodeID(b)
		if !equalIDs(got.FlowsByNode(bid), want.FlowsByNode(bid)) {
			t.Fatalf("node %d FlowsByNode: got %v want %v", b, got.FlowsByNode(bid), want.FlowsByNode(bid))
		}
		if !equalFloats(got.FlowCostsByNode(bid), want.FlowCostsByNode(bid)) {
			t.Fatalf("node %d FlowCostsByNode mismatch", b)
		}
	}
	for l := range p.Links {
		lid := model.LinkID(l)
		if !equalIDs(got.FlowsByLink(lid), want.FlowsByLink(lid)) {
			t.Fatalf("link %d FlowsByLink: got %v want %v", l, got.FlowsByLink(lid), want.FlowsByLink(lid))
		}
		if !equalFloats(got.FlowCostsByLink(lid), want.FlowCostsByLink(lid)) {
			t.Fatalf("link %d FlowCostsByLink mismatch", l)
		}
	}
}

func equalIDs[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool { return equalIDs(a, b) }

// snapshotTrees copies the Router's tree headers (the slices stay shared).
func snapshotTrees(r *Router) []Tree {
	return slices.Clone(r.trees)
}

// expectRetracedOnly checks a restore's locality: every flow outside the
// re-traced set keeps its tree slices verbatim, the stats count that set,
// and one BFS per distinct re-traced source plus the two distance runs
// bound the work.
func expectRetracedOnly(t *testing.T, r *Router, st RepairStats, before []Tree) {
	t.Helper()
	retraced := make(map[int32]bool, len(r.heal.sel))
	sources := make(map[model.NodeID]bool)
	for _, fi := range r.heal.sel {
		retraced[fi] = true
		sources[r.flows[fi].Source] = true
	}
	if st.Affected != len(r.heal.sel) || st.Rerouted+st.Unchanged != st.Affected {
		t.Fatalf("%s %d: affected %d rerouted %d unchanged %d, re-traced set %v",
			st.Kind, st.Element, st.Affected, st.Rerouted, st.Unchanged, r.heal.sel)
	}
	if st.BFSRuns > 2+len(sources) {
		t.Fatalf("%s %d: %d BFS runs for %d re-traced sources", st.Kind, st.Element, st.BFSRuns, len(sources))
	}
	for fi := range before {
		cur := r.Tree(model.FlowID(fi))
		if retraced[int32(fi)] {
			continue
		}
		if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
			t.Fatalf("%s %d: flow %d outside the re-traced set was re-routed", st.Kind, st.Element, fi)
		}
	}
}

// TestRouterRepairProperty drives a Router through a random sequence of
// link kills and restores, checking after every event that (1) all trees
// match from-scratch BuildTree on the mutated topology, (2) flows not
// indexed to a killed link, or outside a restore's re-traced set, keep
// their tree slices verbatim, (3) repair stats report exactly those
// flows, and (4) RefreshRouting keeps a live index equal to a fresh
// NewIndex.
func TestRouterRepairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp, caps, flows := randomRouterWorkload(rng, 60, 8, 3)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	checkRouterInvariants(t, r)
	ix := model.NewIndex(r.Problem())
	r.TakeDelta() // construction accumulates nothing, but start clean

	var dead []int
	for ev := 0; ev < 60; ev++ {
		restore := len(dead) > 0 && rng.Intn(3) == 0
		if restore {
			k := rng.Intn(len(dead))
			li := dead[k]
			before := snapshotTrees(r)
			st, err := r.RestoreLink(li)
			if err != nil {
				t.Fatalf("event %d: restore link %d: %v", ev, li, err)
			}
			expectRetracedOnly(t, r, st, before)
			dead = append(dead[:k], dead[k+1:]...)
		} else {
			li := rng.Intn(tp.LinkCount())
			if !tp.LinkAlive(li) {
				continue
			}
			indexed := append([]int32(nil), r.FlowsThroughLink(li)...)
			before := make([]Tree, len(flows))
			for fi := range flows {
				before[fi] = r.Tree(model.FlowID(fi))
			}
			st, err := r.RepairLink(li)
			if errors.Is(err, ErrNoPath) {
				// Atomic failure: link back up, nothing moved.
				if !tp.LinkAlive(li) {
					t.Fatalf("event %d: failed repair left link %d dead", ev, li)
				}
				for fi := range flows {
					cur := r.Tree(model.FlowID(fi))
					if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
						t.Fatalf("event %d: failed repair mutated flow %d tree", ev, fi)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("event %d: repair link %d: %v", ev, li, err)
			}
			if st.Affected != len(indexed) {
				t.Fatalf("event %d: repair affected %d flows, reverse index had %d", ev, st.Affected, len(indexed))
			}
			touched := make(map[int]bool, len(indexed))
			for _, fi := range indexed {
				touched[int(fi)] = true
			}
			for fi := range flows {
				cur := r.Tree(model.FlowID(fi))
				if touched[fi] {
					continue
				}
				if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
					t.Fatalf("event %d: unaffected flow %d was re-routed (spurious)", ev, fi)
				}
			}
			dead = append(dead, li)
		}
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("event %d: RefreshRouting: %v", ev, err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
}

// TestRouterRepairNodeProperty exercises node kills and restores.
func TestRouterRepairNodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp, caps, flows := randomRouterWorkload(rng, 50, 6, 2)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(r.Problem())

	// Nodes hosting a source or subscriber are not repairable; collect the
	// rest as candidates.
	anchored := make([]bool, tp.NodeCount())
	for _, fs := range flows {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}
	var deadNode model.NodeID = -1
	events := 0
	for ev := 0; ev < 200 && events < 30; ev++ {
		if deadNode >= 0 {
			before := snapshotTrees(r)
			st, err := r.RestoreNode(deadNode)
			if err != nil {
				t.Fatalf("restore node %d: %v", deadNode, err)
			}
			if st.Kind != "node-restore" {
				t.Fatalf("stats kind = %q", st.Kind)
			}
			expectRetracedOnly(t, r, st, before)
			deadNode = -1
		} else {
			b := model.NodeID(rng.Intn(tp.NodeCount()))
			if anchored[b] || !tp.NodeAlive(b) {
				continue
			}
			indexed := len(r.FlowsThroughNode(b))
			st, err := r.RepairNode(b)
			if errors.Is(err, ErrNoPath) {
				if !tp.NodeAlive(b) {
					t.Fatalf("failed node repair left node %d dead", b)
				}
				continue
			}
			if err != nil {
				t.Fatalf("repair node %d: %v", b, err)
			}
			if st.Affected != indexed {
				t.Fatalf("node repair affected %d, index had %d", st.Affected, indexed)
			}
			deadNode = b
		}
		events++
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("RefreshRouting: %v", err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
	if events < 10 {
		t.Fatalf("only %d churn events exercised", events)
	}
}

// TestBuildTreeErrNoPathAfterNodeRemoval covers the satellite error path:
// removing a relay node disconnects a subscriber, and BuildTree reports
// which subscriber with ErrNoPath.
func TestBuildTreeErrNoPathAfterNodeRemoval(t *testing.T) {
	tp := Line(4, 1000)
	if err := tp.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	_, err := tp.BuildTree(0, []model.NodeID{3})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("error %q does not name the unreachable subscriber", err)
	}

	// Build surfaces it with the flow context.
	flows := []FlowSpec{{
		Name: "f0", Source: 0, RateMin: 1, RateMax: 10, LinkCost: 1, NodeCost: 1,
		Classes: []ClassSpec{{Name: "c0", Node: 3, MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(1)}},
	}}
	_, err = Build(tp, 1000, flows)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("Build err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "flow 0 (f0)") || !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("Build error %q lacks flow/subscriber context", err)
	}
}

// TestRepairNodeRejectsAnchors: a node hosting a flow source or an
// unpruned subscriber cannot be repaired away; the failure is atomic.
func TestRepairNodeRejectsAnchors(t *testing.T) {
	tp := Line(4, 1000)
	caps := uniformCaps(4, 1000)
	flows := buildSpec()
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RepairNode(0); err == nil || !strings.Contains(err.Error(), "sourced there") {
		t.Fatalf("repairing source node: err = %v", err)
	}
	if !tp.NodeAlive(0) {
		t.Fatal("failed repair left source node dead")
	}
	if _, err := r.RepairNode(2); err == nil || !strings.Contains(err.Error(), "subscribes there") {
		t.Fatalf("repairing subscriber node: err = %v", err)
	}
	if !tp.NodeAlive(2) {
		t.Fatal("failed repair left subscriber node dead")
	}
}

// TestTwoStageReSolveMatchesCold: the re-entrant two-stage solve on the
// prune scenario prunes the same classes and reaches the same stage-2
// utility as the cold TwoStageSolve, without rebuilding problem or engine.
func TestTwoStageReSolveMatchesCold(t *testing.T) {
	iters := 4000
	cfg := core.Config{Workers: 1}

	topo, capacity, flows := pruneScenario()
	cold, err := TwoStageSolve(topo, capacity, flows, cfg, iters)
	if err != nil {
		t.Fatal(err)
	}

	topo2, _, _ := pruneScenario()
	r, err := NewRouter(topo2, uniformCaps(topo2.NodeCount(), capacity), flows)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(r.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	warm, err := TwoStageReSolve(r, eng, iters)
	if err != nil {
		t.Fatal(err)
	}

	if warm.PrunedClasses != cold.PrunedClasses {
		t.Fatalf("pruned %d classes, cold path pruned %d", warm.PrunedClasses, cold.PrunedClasses)
	}
	if warm.PrunedClasses == 0 {
		t.Fatal("scenario pruned nothing; test is vacuous")
	}
	// Same final objective, within convergence tolerance (both stage-2
	// problems describe identical routing; the warm path just starts from
	// stage-1 prices).
	rel := (warm.Stage2.Result.Utility - cold.Stage2.Result.Utility) / cold.Stage2.Result.Utility
	if rel < -1e-3 || rel > 1e-3 {
		t.Fatalf("stage-2 utility %g vs cold %g (rel %g)", warm.Stage2.Result.Utility, cold.Stage2.Result.Utility, rel)
	}
	if warm.UtilityGain <= 0 {
		t.Fatalf("pruning gained %g utility, want > 0", warm.UtilityGain)
	}
	// The hot flow's tree shrank to the near class only.
	if got := len(r.Tree(0).Nodes); got != 2 {
		t.Fatalf("hot tree spans %d nodes after prune, want 2", got)
	}
}

// TestResetRoutingWorkersBitIdentical: after a repair + ResetRouting, the
// serial and sharded engines stay bit-identical — this fails if
// ResetRouting forgets to rebuild the stage plan for the new routing.
func TestResetRoutingWorkersBitIdentical(t *testing.T) {
	run := func(workers int) model.Allocation {
		rng := rand.New(rand.NewSource(23))
		tp, caps, flows := randomRouterWorkload(rng, 80, 10, 3)
		r, err := NewRouter(tp, caps, flows)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(r.Problem(), core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.Solve(200)

		// Kill the first link some flow uses.
		for li := 0; li < tp.LinkCount(); li++ {
			if len(r.FlowsThroughLink(li)) == 0 {
				continue
			}
			if _, err := r.RepairLink(li); err == nil {
				break
			}
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatal(err)
		}
		eng.Solve(200)
		return eng.Allocation()
	}

	serial := run(1)
	sharded := run(4)
	if !equalFloats(serial.Rates, sharded.Rates) {
		t.Fatalf("rates diverge between worker counts:\nserial  %v\nsharded %v", serial.Rates, sharded.Rates)
	}
	if !equalIDs(serial.Consumers, sharded.Consumers) {
		t.Fatalf("consumers diverge between worker counts:\nserial  %v\nsharded %v", serial.Consumers, sharded.Consumers)
	}
}
