// Package overlay models the network of nodes and unidirectional links an
// event-driven infrastructure runs on (Section 2.1 of the LRGP paper), and
// derives optimization problems from it: given a topology and a set of
// flows with subscriber nodes, it routes each flow along a shortest-path
// dissemination tree and emits the corresponding link costs L_{l,i} and
// flow-node costs F_{b,i} into a model.Problem.
//
// The paper's evaluation workloads sidestep topology (no link bottlenecks),
// so package workload builds problems directly; this package supplies the
// fuller substrate for the link-pricing extension experiments and for the
// broker deployment, where flows physically traverse links.
//
// Production overlays churn: RemoveLink/RemoveNode (and their Restore
// counterparts) mark elements dead without renumbering anything, and a
// Router (router.go) keeps per-flow dissemination trees repaired
// incrementally so a failure costs work proportional to the damage, not
// the topology.
package overlay

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Topology is a directed graph of overlay nodes. Node IDs are 0..N-1;
// links are added explicitly. Links and nodes can be marked dead
// (RemoveLink/RemoveNode) and later restored; IDs are stable across
// removal so derived problems keep their shape.
type Topology struct {
	nodeCount int
	links     []TopoLink
	// out[b] lists indices into links leaving node b.
	out [][]int32
	// deadLink[li] / deadNode[b] mark removed elements; a link is usable
	// only when itself and both endpoints are alive. Lazily allocated so
	// static topologies pay nothing.
	deadLink []bool
	deadNode []bool
	// epoch counts topology mutations (link/node add/remove/restore);
	// Scratch uses it to invalidate its cached BFS tree.
	epoch int64
}

// TopoLink is one unidirectional overlay link.
type TopoLink struct {
	From, To model.NodeID
	Capacity float64
}

// Errors returned by topology operations.
var (
	ErrNoPath   = errors.New("overlay: no path")
	ErrBadLink  = errors.New("overlay: invalid link")
	ErrBadNode  = errors.New("overlay: invalid node")
	ErrBadBuild = errors.New("overlay: invalid build spec")
)

// NewTopology returns a topology with n nodes and no links.
func NewTopology(n int) *Topology {
	return &Topology{nodeCount: n, out: make([][]int32, n)}
}

// NodeCount returns the number of nodes.
func (t *Topology) NodeCount() int { return t.nodeCount }

// LinkCount returns the number of links ever added (dead ones included).
func (t *Topology) LinkCount() int { return len(t.links) }

// Links returns a copy of the link list, indexed by the LinkIDs used in
// derived problems. Dead links are included (IDs are stable).
func (t *Topology) Links() []TopoLink {
	out := make([]TopoLink, len(t.links))
	copy(out, t.links)
	return out
}

// AddLink adds a unidirectional link and returns its index.
func (t *Topology) AddLink(from, to model.NodeID, capacity float64) (int, error) {
	if from < 0 || int(from) >= t.nodeCount || to < 0 || int(to) >= t.nodeCount {
		return 0, fmt.Errorf("%w: endpoints %d->%d with %d nodes", ErrBadLink, from, to, t.nodeCount)
	}
	if from == to {
		return 0, fmt.Errorf("%w: self-loop at %d", ErrBadLink, from)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("%w: capacity %g", ErrBadLink, capacity)
	}
	id := len(t.links)
	t.links = append(t.links, TopoLink{From: from, To: to, Capacity: capacity})
	t.out[from] = append(t.out[from], int32(id))
	if t.deadLink != nil {
		t.deadLink = append(t.deadLink, false)
	}
	t.epoch++
	return id, nil
}

// AddBidirectional adds a pair of opposite links with equal capacity and
// returns their indices.
func (t *Topology) AddBidirectional(a, b model.NodeID, capacity float64) (int, int, error) {
	ab, err := t.AddLink(a, b, capacity)
	if err != nil {
		return 0, 0, err
	}
	ba, err := t.AddLink(b, a, capacity)
	if err != nil {
		return 0, 0, err
	}
	return ab, ba, nil
}

// RemoveLink marks link li dead: no path may use it until RestoreLink.
// The link keeps its ID and capacity.
func (t *Topology) RemoveLink(li int) error {
	if li < 0 || li >= len(t.links) {
		return fmt.Errorf("%w: link %d of %d", ErrBadLink, li, len(t.links))
	}
	if t.deadLink == nil {
		t.deadLink = make([]bool, len(t.links))
	}
	if t.deadLink[li] {
		return fmt.Errorf("%w: link %d already removed", ErrBadLink, li)
	}
	t.deadLink[li] = true
	t.epoch++
	return nil
}

// RestoreLink brings a removed link back.
func (t *Topology) RestoreLink(li int) error {
	if li < 0 || li >= len(t.links) {
		return fmt.Errorf("%w: link %d of %d", ErrBadLink, li, len(t.links))
	}
	if t.deadLink == nil || !t.deadLink[li] {
		return fmt.Errorf("%w: link %d not removed", ErrBadLink, li)
	}
	t.deadLink[li] = false
	t.epoch++
	return nil
}

// RemoveNode marks node b dead: paths may neither start, end nor relay
// there, and every incident link is effectively down until RestoreNode.
// Individually removed links stay removed across a node restore.
func (t *Topology) RemoveNode(b model.NodeID) error {
	if b < 0 || int(b) >= t.nodeCount {
		return fmt.Errorf("%w: node %d of %d", ErrBadNode, b, t.nodeCount)
	}
	if t.deadNode == nil {
		t.deadNode = make([]bool, t.nodeCount)
	}
	if t.deadNode[b] {
		return fmt.Errorf("%w: node %d already removed", ErrBadNode, b)
	}
	t.deadNode[b] = true
	t.epoch++
	return nil
}

// RestoreNode brings a removed node back.
func (t *Topology) RestoreNode(b model.NodeID) error {
	if b < 0 || int(b) >= t.nodeCount {
		return fmt.Errorf("%w: node %d of %d", ErrBadNode, b, t.nodeCount)
	}
	if t.deadNode == nil || !t.deadNode[b] {
		return fmt.Errorf("%w: node %d not removed", ErrBadNode, b)
	}
	t.deadNode[b] = false
	t.epoch++
	return nil
}

// LinkAlive reports whether link li and both its endpoints are alive.
func (t *Topology) LinkAlive(li int) bool {
	if li < 0 || li >= len(t.links) {
		return false
	}
	if t.deadLink != nil && t.deadLink[li] {
		return false
	}
	l := t.links[li]
	return t.NodeAlive(l.From) && t.NodeAlive(l.To)
}

// NodeAlive reports whether node b exists and is alive.
func (t *Topology) NodeAlive(b model.NodeID) bool {
	if b < 0 || int(b) >= t.nodeCount {
		return false
	}
	return t.deadNode == nil || !t.deadNode[b]
}

// linkUsable is LinkAlive without the bounds re-checks, for the BFS inner
// loop (li always comes from an adjacency list).
func (t *Topology) linkUsable(li int32) bool {
	if t.deadLink != nil && t.deadLink[li] {
		return false
	}
	// From is alive (BFS only dequeues alive nodes), so only To matters.
	return t.deadNode == nil || !t.deadNode[t.links[li].To]
}

// tailUsable mirrors linkUsable for reverse traversals, where the To node
// is the alive one and From must be checked.
func (t *Topology) tailUsable(li int32) bool {
	if t.deadLink != nil && t.deadLink[li] {
		return false
	}
	return t.deadNode == nil || !t.deadNode[t.links[li].From]
}

// Line builds a path topology 0-1-...-n-1 with bidirectional links.
func Line(n int, capacity float64) *Topology {
	t := NewTopology(n)
	for i := 0; i+1 < n; i++ {
		// Construction cannot fail for valid i.
		_, _, _ = t.AddBidirectional(model.NodeID(i), model.NodeID(i+1), capacity)
	}
	return t
}

// Ring builds a cycle topology with bidirectional links.
func Ring(n int, capacity float64) *Topology {
	t := Line(n, capacity)
	if n > 2 {
		_, _, _ = t.AddBidirectional(model.NodeID(n-1), 0, capacity)
	}
	return t
}

// Star builds a hub-and-spoke topology with node 0 as the hub.
func Star(n int, capacity float64) *Topology {
	t := NewTopology(n)
	for i := 1; i < n; i++ {
		_, _, _ = t.AddBidirectional(0, model.NodeID(i), capacity)
	}
	return t
}

// Scratch holds the reusable state of breadth-first routing: the BFS
// parent tree, epoch-marked visit/membership sets and the queue. One
// Scratch serves any number of BuildTreeInto calls over one topology, and
// it caches the most recent BFS so consecutive flows sharing a source (or
// repeated traces after one failure) pay for a single traversal. A Scratch
// belongs to one goroutine.
type Scratch struct {
	// prev[b] is the link that first reached b in the cached BFS and
	// depth[b] its hop distance from the source, both valid when seen[b]
	// == epoch; the BFS tree is a function of (source, alive topology)
	// only, so every flow from the same source shares it.
	prev  []int32
	depth []int32
	seen  []int32
	queue []int32
	epoch int32

	// Tree-merge marks and accumulation buffers for one trace.
	linkSeen   []int32
	nodeSeen   []int32
	mergeEpoch int32
	treeLinks  []int32
	treeNodes  []int32

	// Cached-BFS identity: source node and the topology epoch it was
	// computed at.
	bfsSrc   int32
	bfsTopo  int64
	bfsValid bool
}

// NewScratch returns a scratch sized for t.
func NewScratch(t *Topology) *Scratch {
	sc := &Scratch{}
	sc.ensure(t)
	return sc
}

// ensure (re)sizes the scratch arrays for t, preserving nothing.
func (sc *Scratch) ensure(t *Topology) {
	if len(sc.seen) < t.nodeCount {
		sc.prev = make([]int32, t.nodeCount)
		sc.depth = make([]int32, t.nodeCount)
		sc.seen = make([]int32, t.nodeCount)
		sc.nodeSeen = make([]int32, t.nodeCount)
		sc.queue = make([]int32, 0, t.nodeCount)
		sc.bfsValid = false
	}
	if len(sc.linkSeen) < len(t.links) {
		sc.linkSeen = make([]int32, len(t.links))
		sc.bfsValid = false
	}
}

// bfs computes (or reuses) the breadth-first parent tree from src over the
// alive topology. Traversal order is deterministic: FIFO queue, adjacency
// lists in insertion order, dead elements skipped in place — so the tree
// is a pure function of (src, alive sets) and repairs that re-run it
// reproduce from-scratch routing exactly.
func (sc *Scratch) bfs(t *Topology, src model.NodeID) {
	sc.ensure(t)
	if sc.bfsValid && sc.bfsSrc == int32(src) && sc.bfsTopo == t.epoch {
		return
	}
	sc.epoch++
	if sc.epoch <= 0 { // wrapped: reset marks
		sc.epoch = 1
		clear(sc.seen)
	}
	e := sc.epoch
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, int32(src))
	sc.seen[src] = e
	sc.prev[src] = -1
	sc.depth[src] = 0
	for head := 0; head < len(sc.queue); head++ {
		b := sc.queue[head]
		for _, li := range t.out[b] {
			to := t.links[li].To
			if sc.seen[to] == e || !t.linkUsable(li) {
				continue
			}
			sc.seen[to] = e
			sc.prev[to] = li
			sc.depth[to] = sc.depth[b] + 1
			sc.queue = append(sc.queue, int32(to))
		}
	}
	sc.bfsSrc, sc.bfsTopo, sc.bfsValid = int32(src), t.epoch, true
}

// reached reports whether the cached BFS reached b.
func (sc *Scratch) reached(b model.NodeID) bool { return sc.seen[b] == sc.epoch }

// hops returns b's hop distance in the cached BFS, or -1 when unreached.
func (sc *Scratch) hops(b model.NodeID) int32 {
	if !sc.reached(b) {
		return -1
	}
	return sc.depth[b]
}

// ShortestPath returns the link indices of a minimum-hop path from src to
// dst (BFS over the alive topology). An empty slice is returned when
// src == dst.
func (t *Topology) ShortestPath(src, dst model.NodeID) ([]int, error) {
	if src < 0 || int(src) >= t.nodeCount || dst < 0 || int(dst) >= t.nodeCount {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
	}
	if src == dst {
		if !t.NodeAlive(src) {
			return nil, fmt.Errorf("%w: node %d removed", ErrNoPath, src)
		}
		return nil, nil
	}
	if !t.NodeAlive(src) || !t.NodeAlive(dst) {
		return nil, fmt.Errorf("%w: %d -> %d (endpoint removed)", ErrNoPath, src, dst)
	}
	sc := NewScratch(t)
	sc.bfs(t, src)
	if !sc.reached(dst) {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
	}
	var rev []int
	for at := dst; at != src; {
		li := sc.prev[at]
		rev = append(rev, int(li))
		at = t.links[li].From
	}
	slices.Reverse(rev)
	return rev, nil
}

// Tree is a flow's dissemination tree: the union of shortest paths from
// the source to every subscriber node.
type Tree struct {
	// Source is the tree root.
	Source model.NodeID
	// Links holds the indices of topology links in the tree, ascending.
	Links []int
	// Nodes holds every node the tree touches (source, relays,
	// subscribers), in ascending order.
	Nodes []model.NodeID
}

// equal reports whether two trees are identical.
func (tr Tree) equal(o Tree) bool {
	return tr.Source == o.Source &&
		slices.Equal(tr.Links, o.Links) &&
		slices.Equal(tr.Nodes, o.Nodes)
}

// BuildTree computes the dissemination tree for a flow from src to the
// given subscriber nodes. Paths are minimum-hop over the alive topology;
// shared prefixes are merged (each link appears once). For repeated or
// bulk routing use BuildTreeInto with a reusable Scratch — BuildTree
// allocates a fresh one per call.
func (t *Topology) BuildTree(src model.NodeID, subscribers []model.NodeID) (Tree, error) {
	tree, _, err := t.BuildTreeInto(NewScratch(t), src, subscribers, Tree{Source: -1})
	return tree, err
}

// BuildTreeInto computes the dissemination tree for a flow using sc's
// reusable state: one multi-target BFS from src (cached across calls that
// share a source and topology state), then one backward trace per
// subscriber that stops at the first already-merged node. When the result
// is identical to old, old is returned unchanged (changed == false) and
// its slices stay shared — the no-spurious-reroute guarantee repairs rely
// on. Otherwise a freshly allocated tree is returned; only changed trees
// cost heap.
func (t *Topology) BuildTreeInto(sc *Scratch, src model.NodeID, subscribers []model.NodeID, old Tree) (tree Tree, changed bool, err error) {
	if src < 0 || int(src) >= t.nodeCount {
		return Tree{}, false, fmt.Errorf("%w: source %d of %d nodes", ErrNoPath, src, t.nodeCount)
	}
	if !t.NodeAlive(src) {
		return Tree{}, false, fmt.Errorf("%w: source %d removed", ErrNoPath, src)
	}
	sc.bfs(t, src)

	sc.mergeEpoch++
	if sc.mergeEpoch <= 0 {
		sc.mergeEpoch = 1
		clear(sc.nodeSeen)
		clear(sc.linkSeen)
	}
	me := sc.mergeEpoch
	sc.treeLinks = sc.treeLinks[:0]
	sc.treeNodes = sc.treeNodes[:0]
	sc.nodeSeen[src] = me
	sc.treeNodes = append(sc.treeNodes, int32(src))

	for _, dst := range subscribers {
		if dst < 0 || int(dst) >= t.nodeCount || !sc.reached(dst) {
			return Tree{}, false, fmt.Errorf("subscriber %d: %w: %d -> %d", dst, ErrNoPath, src, dst)
		}
		// Walk the BFS tree rootward, stopping at the first node already
		// in the merged tree: everything above it was traced by an earlier
		// subscriber. Each link's To node is unique in the BFS tree, so a
		// link is new exactly when its To node is.
		for at := dst; sc.nodeSeen[at] != me; {
			sc.nodeSeen[at] = me
			sc.treeNodes = append(sc.treeNodes, int32(at))
			li := sc.prev[at]
			sc.treeLinks = append(sc.treeLinks, li)
			at = t.links[li].From
		}
	}
	slices.Sort(sc.treeLinks)
	slices.Sort(sc.treeNodes)

	// Unchanged? Keep the old tree (and its slices) verbatim.
	if old.Source == src && len(old.Links) == len(sc.treeLinks) && len(old.Nodes) == len(sc.treeNodes) {
		same := true
		for k, li := range sc.treeLinks {
			if old.Links[k] != int(li) {
				same = false
				break
			}
		}
		if same {
			for k, b := range sc.treeNodes {
				if old.Nodes[k] != model.NodeID(b) {
					same = false
					break
				}
			}
		}
		if same {
			return old, false, nil
		}
	}

	tree = Tree{
		Source: src,
		Links:  make([]int, len(sc.treeLinks)),
		Nodes:  make([]model.NodeID, len(sc.treeNodes)),
	}
	for k, li := range sc.treeLinks {
		tree.Links[k] = int(li)
	}
	for k, b := range sc.treeNodes {
		tree.Nodes[k] = model.NodeID(b)
	}
	return tree, true, nil
}
