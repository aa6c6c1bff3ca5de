package core

import (
	"sort"

	"repro/internal/model"
)

// Stage planning (DESIGN.md §5). Step's stages read each other's outputs:
// a node's admission reads the rates of the flows crossing it, and a
// flow's next rate reads the prices of the nodes and links on its path.
// Split naively across shards, every stage would need a barrier before
// the next. But that data flow is confined to the connected components of
// the flow/node/link incidence graph: a node only ever reads flows that
// reach it, a link only flows that traverse it, and a flow only nodes and
// links on its own path. When shards are unions of whole components, every
// cross-stage read stays inside the shard, so one worker can run
// rate-solve → admission → price update for its components back to back —
// one barrier per Step — and still perform exactly the serial arithmetic
// on exactly the serial values. A problem that does not split that way
// runs as one shard on the caller's goroutine.
//
// The plan covers only live constraints (DESIGN.md §9): a node or link
// that no flow crosses and that sits at its exact price fixpoint is parked
// — no stage would change anything it holds — so it is in no shard list
// and adds no vertex to the analysis. Flows are always listed.
//
// The analysis runs at NewEngine and again on ResetRouting, which changes
// the topology and the live sets (Reset keeps both, so the plan survives
// Reset), over the index's dense membership views; it never consults
// costs or capacities, which may change.

// stagePlan is Step's schedule: a fixed assignment of flows and live
// nodes and links to shards. Either every shard is a union of whole
// components (the fused plan, run over the worker pool with one barrier
// per Step) or there is one shard listing every flow and every live node
// and link (run inline on the caller's goroutine) — the verdict for
// single-worker engines and for problems the analysis cannot split evenly.
type stagePlan struct {
	// components is the number of connected components found
	// (informational; zero when the analysis did not run).
	components int
	// shards is the plan's fan-out; flows/nodes/links are indexed by
	// shard, each list ascending so per-shard iteration order matches the
	// serial scan order.
	shards int
	flows  [][]int32
	nodes  [][]int32
	links  [][]int32
}

// newStagePlan runs the crossing-writes analysis under the given shard
// count. flows lists every flow (vertex i is flow i); nodes and links are
// the ascending live lists. It returns the one-shard plan over those lists
// when shards <= 1 or when the problem does not split into at least shards
// components balanced within 2x of the mean shard weight. Deterministic:
// union-find roots, component order and the greedy assignment depend only
// on the topology and the live lists, never on scheduling or map
// iteration. Its cost is linear in the live items and their memberships.
func newStagePlan(ix *model.Index, flows, nodes, links []int32, shards int) *stagePlan {
	nf, nn, nl := len(flows), len(nodes), len(links)
	total := nf + nn + nl
	if shards <= 1 || total == 0 {
		return inlinePlan(flows, nodes, links, 0)
	}

	// Union-find over flows [0,nf), live nodes [nf,nf+nn) and live links
	// [nf+nn,total), by list position. Union-by-minimum keeps every root
	// the smallest vertex of its component, which both orders components
	// deterministically and lets the collection pass below recognize roots
	// on first visit.
	parent := make([]int32, total)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		switch {
		case ra < rb:
			parent[rb] = ra
		case rb < ra:
			parent[ra] = rb
		}
	}
	for k, b := range nodes {
		for _, i := range ix.FlowsByNode(model.NodeID(b)) {
			union(int32(i), int32(nf+k))
		}
	}
	for k, l := range links {
		for _, i := range ix.FlowsByLink(model.LinkID(l)) {
			union(int32(i), int32(nf+nn+k))
		}
	}
	// Classes add no edges: a class's node is required (model.Validate) to
	// carry the class's flow, so that flow-node pair is already united.

	// Collect components in root order with their balancing weights. A
	// vertex's weight estimates its per-iteration work: classes dominate
	// both the rate solve (per-flow class scan) and the admission sort
	// (per-node class scan), so flows and nodes count their attached
	// classes on top of themselves.
	type component struct {
		root   int32
		weight int
	}
	compOf := make([]int32, total)
	var comps []component
	for v := 0; v < total; v++ {
		r := find(int32(v))
		if int(r) == v {
			compOf[v] = int32(len(comps))
			comps = append(comps, component{root: r})
		} else {
			compOf[v] = compOf[r]
		}
		w := 1
		switch {
		case v < nf:
			w += len(ix.ClassesByFlow(model.FlowID(v)))
		case v < nf+nn:
			w += len(ix.ClassesByNode(model.NodeID(nodes[v-nf])))
		}
		comps[compOf[v]].weight += w
	}
	if len(comps) < shards {
		return inlinePlan(flows, nodes, links, len(comps))
	}

	// Longest-processing-time assignment: heaviest component first into the
	// lightest shard. Ties break on root (components) and shard index
	// (shards), keeping the whole assignment deterministic.
	order := make([]int, len(comps))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := comps[order[a]], comps[order[b]]
		if ca.weight != cb.weight {
			return ca.weight > cb.weight
		}
		return ca.root < cb.root
	})
	shardWeight := make([]int, shards)
	shardOf := make([]int32, len(comps))
	totalWeight := 0
	for _, k := range order {
		s := 0
		for t := 1; t < shards; t++ {
			if shardWeight[t] < shardWeight[s] {
				s = t
			}
		}
		shardOf[k] = int32(s)
		shardWeight[s] += comps[k].weight
		totalWeight += comps[k].weight
	}
	maxWeight := 0
	for _, w := range shardWeight {
		if w > maxWeight {
			maxWeight = w
		}
	}
	// A shard more than 2x the mean would serialize the whole fused Step
	// behind it while the other workers idle; such lopsided problems run
	// inline instead.
	if maxWeight*shards > 2*totalWeight {
		return inlinePlan(flows, nodes, links, len(comps))
	}

	plan := &stagePlan{
		components: len(comps),
		shards:     shards,
		flows:      make([][]int32, shards),
		nodes:      make([][]int32, shards),
		links:      make([][]int32, shards),
	}
	counts := make([]int, shards)
	fill := func(lists [][]int32, base int, ids []int32) {
		for s := range counts {
			counts[s] = 0
		}
		for k := range ids {
			counts[shardOf[compOf[base+k]]]++
		}
		for s := 0; s < shards; s++ {
			lists[s] = make([]int32, 0, counts[s])
		}
		for k, v := range ids {
			s := shardOf[compOf[base+k]]
			lists[s] = append(lists[s], v)
		}
	}
	fill(plan.flows, 0, flows)
	fill(plan.nodes, nf, nodes)
	fill(plan.links, nf+nn, links)
	return plan
}

// inlinePlan is the one-shard plan over the given ascending lists, so the
// shard runs exactly the serial scan of every flow and live constraint.
// The plan shares the lists.
func inlinePlan(flows, nodes, links []int32, components int) *stagePlan {
	return &stagePlan{components: components, shards: 1,
		flows: [][]int32{flows}, nodes: [][]int32{nodes}, links: [][]int32{links}}
}

// iota32 returns 0, 1, ..., n-1.
func iota32(n int) []int32 {
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	return ids
}
