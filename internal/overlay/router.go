package overlay

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Router owns the routing state of one problem instance: the topology, the
// flow specs, every flow's dissemination tree, and the model.Problem whose
// L/F coefficients mirror those trees. Unlike Build, the problem keeps a
// slot for every topology link (link IDs are topology indices, dead or
// unused links included), so its shape survives re-routing and the engine
// can warm-restart across failures via Engine.ResetRouting.
//
// A Router maintains reverse indexes (link → flows, node → flows routed
// through it), so RepairLink/RepairNode re-route exactly the flows whose
// trees touch the failed element; every other tree — and the problem
// coefficients behind it — stays byte-identical, slices shared. Changes
// accumulate into a model.RoutingDelta collected by TakeDelta.
//
// A Router is single-goroutine, like the Engine it feeds. The returned
// *model.Problem is live: repairs mutate its cost maps in place, and the
// caller must not Step an engine bound to it between a repair and the
// ResetRouting that republishes the index.
type Router struct {
	topo  *Topology
	flows []FlowSpec // deep-copied specs; Classes slices owned by the Router
	prob  *model.Problem
	trees []Tree
	sc    *Scratch

	// Reverse indexes over tree membership, each list ascending:
	// flowsByLink[li] / flowsByNode[b] are the flows whose tree contains
	// the element. These are routing indexes — a node hosting only a
	// flow's subscribers appears exactly when the tree reaches it.
	flowsByLink [][]int32
	flowsByNode [][]int32

	// classOff[fi] is the global ID of flow fi's first class (classes are
	// laid out flow-major, matching assembleProblem).
	classOff []int
	// pruned[j] marks classes zeroed by PruneDeadSubscribers; their nodes
	// no longer anchor the flow's tree.
	pruned []bool
	// depth[j] is class j's hop depth in its flow's current tree, which
	// is its BFS distance from the source (meaningful while unpruned).
	depth []int32
	// pendDepth buffers rerouteAffected's uncommitted per-class depths.
	pendDepth []int32
	// heal is the restore path's scratch (heal.go), built on first use.
	heal healScratch

	// Accumulated routing delta since the last TakeDelta.
	flowMark   []bool
	nodeMark   []bool
	linkMark   []bool
	dirtyFlows []model.FlowID
	dirtyNodes []model.NodeID
	dirtyLinks []model.LinkID
}

// NewRouter routes every flow over t and returns a Router owning the
// resulting problem. nodeCaps gives each node's capacity (len must equal
// t.NodeCount()). The problem retains all topology links; Validate runs on
// the result.
func NewRouter(t *Topology, nodeCaps []float64, flows []FlowSpec) (*Router, error) {
	if len(nodeCaps) != t.NodeCount() {
		return nil, fmt.Errorf("%w: %d capacities for %d nodes", ErrBadBuild, len(nodeCaps), t.NodeCount())
	}
	for b, c := range nodeCaps {
		if c <= 0 {
			return nil, fmt.Errorf("%w: node %d capacity %g", ErrBadBuild, b, c)
		}
	}
	if err := checkFlowSpecs(flows); err != nil {
		return nil, err
	}
	specs := make([]FlowSpec, len(flows))
	classOff := make([]int, len(flows))
	nClasses := 0
	for fi, fs := range flows {
		specs[fi] = fs
		specs[fi].Classes = slices.Clone(fs.Classes)
		classOff[fi] = nClasses
		nClasses += len(fs.Classes)
	}
	sc := NewScratch(t)
	depth := make([]int32, nClasses)
	trees, err := routeTrees(t, sc, flows, depth)
	if err != nil {
		return nil, err
	}

	p := assembleProblem(t, nodeCaps, flows, trees)
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("overlay: routed problem invalid: %w", err)
	}

	r := &Router{
		topo:        t,
		flows:       specs,
		prob:        p,
		trees:       trees,
		sc:          sc,
		flowsByLink: make([][]int32, t.LinkCount()),
		flowsByNode: make([][]int32, t.NodeCount()),
		classOff:    classOff,
		pruned:      make([]bool, nClasses),
		depth:       depth,
		flowMark:    make([]bool, len(flows)),
		nodeMark:    make([]bool, t.NodeCount()),
		linkMark:    make([]bool, t.LinkCount()),
	}
	for fi := range trees {
		r.indexTree(model.FlowID(fi), trees[fi])
	}
	return r, nil
}

// Problem returns the Router's live problem. Repairs mutate it in place.
func (r *Router) Problem() *model.Problem { return r.prob }

// Topology returns the topology the Router routes over.
func (r *Router) Topology() *Topology { return r.topo }

// Tree returns flow i's current dissemination tree. The slices are owned
// by the Router and must not be mutated.
func (r *Router) Tree(i model.FlowID) Tree { return r.trees[i] }

// FlowsThroughLink returns the flows whose trees use link li, ascending.
// The slice is owned by the Router.
func (r *Router) FlowsThroughLink(li int) []int32 { return r.flowsByLink[li] }

// FlowsThroughNode returns the flows whose trees touch node b, ascending.
// The slice is owned by the Router.
func (r *Router) FlowsThroughNode(b model.NodeID) []int32 { return r.flowsByNode[b] }

// TakeDelta returns the routing delta accumulated since the previous call
// and resets it. Feed the result to Engine.ResetRouting (or
// model.Index.RefreshRouting) to republish the mutated problem.
func (r *Router) TakeDelta() model.RoutingDelta {
	d := model.RoutingDelta{
		Flows: r.dirtyFlows,
		Nodes: r.dirtyNodes,
		Links: r.dirtyLinks,
	}
	for _, i := range d.Flows {
		r.flowMark[i] = false
	}
	for _, b := range d.Nodes {
		r.nodeMark[b] = false
	}
	for _, l := range d.Links {
		r.linkMark[l] = false
	}
	r.dirtyFlows, r.dirtyNodes, r.dirtyLinks = nil, nil, nil
	return d
}

// subscribers appends flow fi's routing anchors — the nodes of its
// unpruned classes — to buf and returns it.
func (r *Router) subscribers(fi int, buf []model.NodeID) []model.NodeID {
	off := r.classOff[fi]
	for k, cs := range r.flows[fi].Classes {
		if !r.pruned[off+k] {
			buf = append(buf, cs.Node)
		}
	}
	return buf
}

// PruneDeadSubscribers implements the re-entrant half of the Section 2.4
// second stage: every class whose admitted population in consumers is zero
// has its demand zeroed (MaxConsumers = 0 — the class stays in the
// problem, keeping the member set Refresh-compatible), and each affected
// flow's tree is re-routed to its surviving subscribers. Returns the
// number of newly pruned classes. Pruning is monotone; already-pruned
// classes are skipped. The caller republishes via TakeDelta +
// Engine.ResetRouting.
func (r *Router) PruneDeadSubscribers(consumers []int) (int, error) {
	if len(consumers) != len(r.prob.Classes) {
		return 0, fmt.Errorf("%w: %d populations for %d classes", ErrBadBuild, len(consumers), len(r.prob.Classes))
	}
	prunedNow := 0
	reroute := make([]bool, len(r.flows))
	for j, n := range consumers {
		if n > 0 || r.pruned[j] || r.prob.Classes[j].MaxConsumers == 0 {
			continue
		}
		r.pruned[j] = true
		r.prob.Classes[j].MaxConsumers = 0
		reroute[r.prob.Classes[j].Flow] = true
		prunedNow++
	}
	if prunedNow == 0 {
		return 0, nil
	}
	var subs []model.NodeID
	for fi := range r.flows {
		if !reroute[fi] {
			continue
		}
		subs = r.subscribers(fi, subs[:0])
		// Routing to a subset of the old subscribers over the same alive
		// topology cannot fail: the old tree already reached them all.
		// The BFS is the same too, so the survivors' depths stand.
		tree, changed, err := r.topo.BuildTreeInto(r.sc, r.flows[fi].Source, subs, r.trees[fi])
		if err != nil {
			return prunedNow, fmt.Errorf("overlay: prune re-route flow %d (%s): %w", fi, r.flows[fi].Name, err)
		}
		if changed {
			r.commitTree(model.FlowID(fi), tree)
		} else {
			// The demand change alone dirties the flow: populations and the
			// node's admission mix must be recomputed from it.
			r.markFlow(model.FlowID(fi))
		}
	}
	return prunedNow, nil
}

// indexTree adds flow i to the reverse indexes for every element of tree.
func (r *Router) indexTree(i model.FlowID, tree Tree) {
	for _, li := range tree.Links {
		r.flowsByLink[li] = insertFlow(r.flowsByLink[li], int32(i))
	}
	for _, b := range tree.Nodes {
		r.flowsByNode[b] = insertFlow(r.flowsByNode[b], int32(i))
	}
}

// commitTree replaces flow i's tree, updating the problem's cost maps, the
// reverse indexes and the routing delta. Old and new element lists are
// ascending, so the symmetric difference is a two-pointer walk; elements
// in both trees are untouched (their cost entry is already right).
func (r *Router) commitTree(i model.FlowID, tree Tree) {
	old := r.trees[i]
	fs := &r.flows[i]

	a, b := 0, 0
	for a < len(old.Links) || b < len(tree.Links) {
		switch {
		case b >= len(tree.Links) || (a < len(old.Links) && old.Links[a] < tree.Links[b]):
			li := old.Links[a]
			r.flowsByLink[li] = removeFlow(r.flowsByLink[li], int32(i))
			delete(r.prob.Links[li].FlowCost, i)
			r.markLink(model.LinkID(li))
			a++
		case a >= len(old.Links) || tree.Links[b] < old.Links[a]:
			li := tree.Links[b]
			r.flowsByLink[li] = insertFlow(r.flowsByLink[li], int32(i))
			r.prob.Links[li].FlowCost[i] = fs.LinkCost
			r.markLink(model.LinkID(li))
			b++
		default:
			a++
			b++
		}
	}
	a, b = 0, 0
	for a < len(old.Nodes) || b < len(tree.Nodes) {
		switch {
		case b >= len(tree.Nodes) || (a < len(old.Nodes) && old.Nodes[a] < tree.Nodes[b]):
			bn := old.Nodes[a]
			r.flowsByNode[bn] = removeFlow(r.flowsByNode[bn], int32(i))
			delete(r.prob.Nodes[bn].FlowCost, i)
			r.markNode(bn)
			a++
		case a >= len(old.Nodes) || tree.Nodes[b] < old.Nodes[a]:
			bn := tree.Nodes[b]
			r.flowsByNode[bn] = insertFlow(r.flowsByNode[bn], int32(i))
			r.prob.Nodes[bn].FlowCost[i] = fs.NodeCost
			r.markNode(bn)
			b++
		default:
			a++
			b++
		}
	}

	r.trees[i] = tree
	r.markFlow(i)
}

func (r *Router) markFlow(i model.FlowID) {
	if !r.flowMark[i] {
		r.flowMark[i] = true
		r.dirtyFlows = append(r.dirtyFlows, i)
	}
}

func (r *Router) markNode(b model.NodeID) {
	if !r.nodeMark[b] {
		r.nodeMark[b] = true
		r.dirtyNodes = append(r.dirtyNodes, b)
	}
}

func (r *Router) markLink(l model.LinkID) {
	if !r.linkMark[l] {
		r.linkMark[l] = true
		r.dirtyLinks = append(r.dirtyLinks, l)
	}
}

// insertFlow inserts i into ascending list fl (no-op when present).
func insertFlow(fl []int32, i int32) []int32 {
	k, ok := slices.BinarySearch(fl, i)
	if ok {
		return fl
	}
	return slices.Insert(fl, k, i)
}

// removeFlow removes i from ascending list fl (no-op when absent).
func removeFlow(fl []int32, i int32) []int32 {
	k, ok := slices.BinarySearch(fl, i)
	if !ok {
		return fl
	}
	return slices.Delete(fl, k, k+1)
}
