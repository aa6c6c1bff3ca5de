package overlay

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// RepairStats reports what one repair touched. The locality guarantee is
// visible here: a failure's Affected count equals the reverse-index size
// for the failed element, never the flow count.
type RepairStats struct {
	// Kind is "link-fail", "node-fail", "link-restore" or "node-restore".
	Kind string
	// Element is the failed/restored link index or node ID.
	Element int
	// Affected counts flows whose trees were recomputed: for failures the
	// flows indexed to the failed element, for restores the flows with a
	// subscriber the healed element reaches by a path no longer than its
	// current tree depth (zero when the restore reconnects nothing).
	Affected int
	// Rerouted counts trees that actually changed; Unchanged counts trees
	// recomputed but identical (their slices were kept verbatim).
	Rerouted  int
	Unchanged int
	// BFSRuns counts breadth-first traversals performed; flows sharing a
	// source share one run. A restore adds the two distance runs that
	// pick its flows.
	BFSRuns int
}

// RepairLink marks link li failed and re-routes exactly the flows whose
// dissemination trees used it (per the reverse index); every other tree is
// untouched, slices shared. The repair is atomic: if any affected flow can
// no longer reach a subscriber, the link is restored, no state changes,
// and the error wraps ErrNoPath with the flow context. On success the
// topology, trees, problem coefficients and pending delta all reflect the
// failure; republish via TakeDelta + Engine.ResetRouting.
func (r *Router) RepairLink(li int) (RepairStats, error) {
	if err := r.topo.RemoveLink(li); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "link-fail", Element: li}
	if err := r.rerouteAffected(&st, r.flowsByLink[li]); err != nil {
		// Rollback: the reroute committed nothing.
		if rerr := r.topo.RestoreLink(li); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of link %d failed: %v", li, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: repair link %d: %w", li, err)
	}
	return st, nil
}

// RepairNode marks node b failed and re-routes exactly the flows whose
// trees touched it. A flow sourced at b, or with an unpruned class
// attached at b, cannot be repaired — the repair fails atomically (prune
// the class first, or accept a full rebuild). Restore/republish semantics
// match RepairLink.
func (r *Router) RepairNode(b model.NodeID) (RepairStats, error) {
	if err := r.topo.RemoveNode(b); err != nil {
		return RepairStats{}, err
	}
	rollback := func() {
		if rerr := r.topo.RestoreNode(b); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of node %d failed: %v", b, rerr))
		}
	}
	for _, fi := range r.flowsByNode[b] {
		fs := &r.flows[fi]
		if fs.Source == b {
			rollback()
			return RepairStats{}, fmt.Errorf("overlay: repair node %d: flow %d (%s) is sourced there", b, fi, fs.Name)
		}
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			if cs.Node == b && !r.pruned[off+k] {
				rollback()
				return RepairStats{}, fmt.Errorf("overlay: repair node %d: flow %d (%s) class %d (%s) subscribes there",
					b, fi, fs.Name, off+k, cs.Name)
			}
		}
	}
	st := RepairStats{Kind: "node-fail", Element: int(b)}
	if err := r.rerouteAffected(&st, r.flowsByNode[b]); err != nil {
		rollback()
		return RepairStats{}, fmt.Errorf("overlay: repair node %d: %w", b, err)
	}
	return st, nil
}

// RestoreLink brings link li back and re-traces only the flows the healed
// link can reroute: those with a subscriber the link now reaches by a
// path no longer than its current tree depth (heal.go decides this with
// two distance BFS runs). Every other tree is provably unchanged and
// keeps its slices; re-traced trees that come back identical do too.
func (r *Router) RestoreLink(li int) (RepairStats, error) {
	if err := r.topo.RestoreLink(li); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "link-restore", Element: li}
	if err := r.rerouteAffected(&st, r.healedLinkFlows(&st, li)); err != nil {
		if rerr := r.topo.RemoveLink(li); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of link %d restore failed: %v", li, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: restore link %d: %w", li, err)
	}
	return st, nil
}

// RestoreNode brings node b back; semantics match RestoreLink, with the
// node's alive incident links healing together.
func (r *Router) RestoreNode(b model.NodeID) (RepairStats, error) {
	if err := r.topo.RestoreNode(b); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "node-restore", Element: int(b)}
	if err := r.rerouteAffected(&st, r.healedNodeFlows(&st, b)); err != nil {
		if rerr := r.topo.RemoveNode(b); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of node %d restore failed: %v", b, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: restore node %d: %w", b, err)
	}
	return st, nil
}

// pendingTree is one computed-but-uncommitted reroute. depth indexes the
// flow's per-class hop depths in Router.pendDepth.
type pendingTree struct {
	flow  model.FlowID
	tree  Tree
	depth int
}

// rerouteAffected recomputes the trees of the given flows over the mutated
// topology, compute-then-commit: nothing is mutated unless every flow
// routes. Flows are processed grouped by source so they share BFS runs.
func (r *Router) rerouteAffected(st *RepairStats, affected []int32) error {
	// The reverse-index slice is mutated by commits; iterate a copy, in
	// source order for BFS cache hits.
	order := slices.Clone(affected)
	slices.SortFunc(order, func(x, y int32) int {
		if d := int(r.flows[x].Source) - int(r.flows[y].Source); d != 0 {
			return d
		}
		return int(x - y)
	})
	st.Affected = len(order)

	pending := make([]pendingTree, 0, len(order))
	r.pendDepth = r.pendDepth[:0]
	var subs []model.NodeID
	for _, fi := range order {
		fs := &r.flows[fi]
		subs = r.subscribers(int(fi), subs[:0])
		if !r.bfsCached(fs.Source) {
			st.BFSRuns++
		}
		tree, changed, err := r.topo.BuildTreeInto(r.sc, fs.Source, subs, r.trees[fi])
		if err != nil {
			return fmt.Errorf("flow %d (%s): %w", fi, fs.Name, err)
		}
		if !changed {
			// Same paths, same depths.
			st.Unchanged++
			continue
		}
		pending = append(pending, pendingTree{flow: model.FlowID(fi), tree: tree, depth: len(r.pendDepth)})
		for _, cs := range fs.Classes {
			r.pendDepth = append(r.pendDepth, r.sc.hops(cs.Node))
		}
	}
	for _, pt := range pending {
		r.commitTree(pt.flow, pt.tree)
		off := r.classOff[pt.flow]
		copy(r.depth[off:off+len(r.flows[pt.flow].Classes)], r.pendDepth[pt.depth:])
	}
	st.Rerouted = len(pending)
	return nil
}

// bfsCached reports whether the scratch already holds the BFS tree for
// src over the current topology state.
func (r *Router) bfsCached(src model.NodeID) bool {
	return r.sc.bfsValid && r.sc.bfsSrc == int32(src) && r.sc.bfsTopo == r.topo.epoch
}
