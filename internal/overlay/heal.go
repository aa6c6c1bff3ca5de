package overlay

import "repro/internal/model"

// Restores re-trace only the flows a healed element can reroute.
//
// A flow's tree is the union of its subscribers' BFS paths, and the
// canonical BFS (FIFO, insertion-order adjacency) gives node x the
// lexicographically first of its shortest paths from the source, ordered
// by adjacency position. Healing link u→v only adds paths, each through
// u→v. If no shortest s→x path of the healed topology uses the link, x
// keeps its set of shortest paths, hence its canonical path. The link
// lies on a shortest s→x path iff
//
//	d(s,u) + 1 + d(v,x) ≤ d(s,x)
//
// where d(s,x) is x's depth in the current tree (tree paths are shortest
// paths) and the left-hand distances are the same before and after the
// heal: a shortest path to u or from v never crosses u→v. So a flow none
// of whose unpruned subscribers passes the test keeps a bit-identical
// tree, and the test costs two BFS runs per restore, not one per flow: a
// reverse BFS from u gives d(s,u) for every source s, a forward BFS from
// v gives d(v,x) for every x. A healed node b is the union of its links:
// the reverse BFS starts from all of b's alive in-neighbours at once, so
// it gives the minimum of d(s,a) over them, and the forward BFS starts
// at b. A flow sourced at b, or with an unpruned subscriber there, is
// re-traced outright; RepairNode refuses to kill such a node, so this
// only keeps the rule total. Flows that pass the test but keep their
// route come back unchanged from BuildTreeInto's compare-and-keep.

// healScratch holds the restore path's reusable state. It is built on a
// Router's first restore; static overlays pay nothing for it.
type healScratch struct {
	// inOff and inLinks are the reverse adjacency in CSR form: the links
	// entering node b are inLinks[inOff[b]:inOff[b+1]].
	inOff   []int32
	inLinks []int32
	// dist[s] is the reverse BFS distance from s to the healed element's
	// tail (link) or nearest in-neighbour (node); -1 when unreachable.
	dist []int32
	// sel holds the flows the last restore picked for re-tracing.
	sel []int32
}

// ensure builds the reverse adjacency of t once.
func (h *healScratch) ensure(t *Topology) {
	if h.inOff != nil {
		return
	}
	h.inOff = make([]int32, t.nodeCount+1)
	h.inLinks = make([]int32, len(t.links))
	h.dist = make([]int32, t.nodeCount)
	for _, l := range t.links {
		h.inOff[l.To+1]++
	}
	for b := 0; b < t.nodeCount; b++ {
		h.inOff[b+1] += h.inOff[b]
	}
	// dist doubles as the per-node fill cursor.
	copy(h.dist, h.inOff[:t.nodeCount])
	for li, l := range t.links {
		h.inLinks[h.dist[l.To]] = int32(li)
		h.dist[l.To]++
	}
}

// reverseBFS fills h.dist with every node's hop distance to the nearest
// seed over the alive topology. queue holds the seeds, which must be
// alive; it is the traversal's buffer and is returned for reuse.
func (h *healScratch) reverseBFS(t *Topology, queue []int32) []int32 {
	for b := range h.dist {
		h.dist[b] = -1
	}
	for _, b := range queue {
		h.dist[b] = 0
	}
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		for _, li := range h.inLinks[h.inOff[b]:h.inOff[b+1]] {
			from := t.links[li].From
			if h.dist[from] >= 0 || !t.tailUsable(li) {
				continue
			}
			h.dist[from] = h.dist[b] + 1
			queue = append(queue, int32(from))
		}
	}
	return queue
}

// healedLinkFlows returns the flows restored link li can reroute, counting
// the two distance BFS runs into st. A link whose endpoint is still dead
// changes nothing and costs nothing.
func (r *Router) healedLinkFlows(st *RepairStats, li int) []int32 {
	r.heal.sel = r.heal.sel[:0]
	if !r.topo.LinkAlive(li) {
		return r.heal.sel
	}
	l := r.topo.links[li]
	r.heal.ensure(r.topo)
	r.sc.queue = r.heal.reverseBFS(r.topo, append(r.sc.queue[:0], int32(l.From)))
	r.sc.bfs(r.topo, l.To)
	st.BFSRuns += 2
	return r.healedFlows(-1)
}

// healedNodeFlows returns the flows restored node b can reroute, counting
// the two distance BFS runs into st.
func (r *Router) healedNodeFlows(st *RepairStats, b model.NodeID) []int32 {
	h := &r.heal
	h.ensure(r.topo)
	seeds := r.sc.queue[:0]
	for _, li := range h.inLinks[h.inOff[b]:h.inOff[b+1]] {
		if r.topo.tailUsable(li) {
			seeds = append(seeds, int32(r.topo.links[li].From))
		}
	}
	r.sc.queue = h.reverseBFS(r.topo, seeds)
	r.sc.bfs(r.topo, b)
	st.BFSRuns += 2
	return r.healedFlows(b)
}

// healedFlows applies the re-trace test to every flow, given the reverse
// distances in r.heal.dist and the forward BFS from the healed element's
// head in r.sc. anchor is a restored node (-1 for a link): flows sourced
// or subscribing there are always picked.
func (r *Router) healedFlows(anchor model.NodeID) []int32 {
	h := &r.heal
	h.sel = h.sel[:0]
	for fi := range r.flows {
		fs := &r.flows[fi]
		ds := h.dist[fs.Source]
		pick := fs.Source == anchor
		off := r.classOff[fi]
		for k := 0; k < len(fs.Classes) && !pick; k++ {
			x := fs.Classes[k].Node
			if r.pruned[off+k] {
				continue
			}
			dx := r.sc.hops(x)
			pick = x == anchor || (ds >= 0 && dx >= 0 && ds+1+dx <= r.depth[off+k])
		}
		if pick {
			h.sel = append(h.sel, int32(fi))
		}
	}
	return h.sel
}
