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
// The analysis runs at NewEngine and again on ResetRouting, which changes
// the topology (Reset keeps it, so the plan survives Reset), over the
// index's dense membership views; it never consults costs or capacities,
// which may change.

// stagePlan is Step's schedule: a fixed assignment of flows, nodes and
// links to shards. Either every shard is a union of whole components (the
// fused plan, run over the worker pool with one barrier per Step) or there
// is one shard listing every flow, node and link (run inline on the
// caller's goroutine) — the verdict for single-worker engines and for
// problems the analysis cannot split evenly.
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

// planWeight estimates one vertex's per-iteration work for balancing:
// classes dominate both the rate solve (per-flow class scan) and the
// admission sort (per-node class scan), so flows and nodes count their
// attached classes on top of themselves.
func planWeight(ix *model.Index, flows, nodes, links int, v int) int {
	switch {
	case v < flows:
		return 1 + len(ix.ClassesByFlow(model.FlowID(v)))
	case v < flows+nodes:
		return 1 + len(ix.ClassesByNode(model.NodeID(v-flows)))
	default:
		return 1
	}
}

// newStagePlan runs the crossing-writes analysis for p under the given
// shard count, returning the one-shard plan when shards <= 1 or when the
// problem does not split into at least shards components balanced within
// 2x of the mean shard weight. Deterministic: union-find roots, component
// order and the greedy assignment depend only on the topology, never on
// scheduling or map iteration.
func newStagePlan(p *model.Problem, ix *model.Index, shards int) *stagePlan {
	nf, nn, nl := len(p.Flows), len(p.Nodes), len(p.Links)
	total := nf + nn + nl
	if shards <= 1 || total == 0 {
		return inlinePlan(nf, nn, nl, 0)
	}

	// Union-find over flows [0,nf), nodes [nf,nf+nn), links [nf+nn,total).
	// Union-by-minimum keeps every root the smallest vertex of its
	// component, which both orders components deterministically and lets
	// the collection pass below recognize roots on first visit.
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
	for b := 0; b < nn; b++ {
		for _, i := range ix.FlowsByNode(model.NodeID(b)) {
			union(int32(i), int32(nf+b))
		}
	}
	for l := 0; l < nl; l++ {
		for _, i := range ix.FlowsByLink(model.LinkID(l)) {
			union(int32(i), int32(nf+nn+l))
		}
	}
	// Classes add no edges: a class's node is required (model.Validate) to
	// carry the class's flow, so that flow-node pair is already united.

	// Collect components in root order with their balancing weights.
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
		comps[compOf[v]].weight += planWeight(ix, nf, nn, nl, v)
	}
	if len(comps) < shards {
		return inlinePlan(nf, nn, nl, len(comps))
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
		return inlinePlan(nf, nn, nl, len(comps))
	}

	plan := &stagePlan{
		components: len(comps),
		shards:     shards,
		flows:      make([][]int32, shards),
		nodes:      make([][]int32, shards),
		links:      make([][]int32, shards),
	}
	counts := make([]int, shards)
	fill := func(lists [][]int32, base, n int) {
		for s := range counts {
			counts[s] = 0
		}
		for v := 0; v < n; v++ {
			counts[shardOf[compOf[base+v]]]++
		}
		for s := 0; s < shards; s++ {
			lists[s] = make([]int32, 0, counts[s])
		}
		for v := 0; v < n; v++ {
			s := shardOf[compOf[base+v]]
			lists[s] = append(lists[s], int32(v))
		}
	}
	fill(plan.flows, 0, nf)
	fill(plan.nodes, nf, nn)
	fill(plan.links, nf+nn, nl)
	return plan
}

// inlinePlan is the one-shard plan: every flow, node and link in ascending
// order, so the shard runs exactly the serial scan.
func inlinePlan(nf, nn, nl, components int) *stagePlan {
	all := func(n int) [][]int32 {
		ids := make([]int32, n)
		for v := range ids {
			ids[v] = int32(v)
		}
		return [][]int32{ids}
	}
	return &stagePlan{components: components, shards: 1,
		flows: all(nf), nodes: all(nn), links: all(nl)}
}
