package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// minParallelItems is the smallest problem worth a worker pool: when the
// largest of its flow, node and link counts is below it, a Step's work is
// comparable to the dispatch overhead and the engine always runs inline.
// Because parallel and serial execution are bit-identical, the cutover is
// purely a performance decision.
const minParallelItems = 16

// Engine runs synchronous LRGP iterations over a problem. It is the
// colocated formulation discussed in Section 3.5: all per-flow and per-node
// algorithm pieces execute in one process, in the same data-dependency
// order as the distributed version (rates, then populations, then prices).
//
// With Config.Workers > 1 (the default resolves to GOMAXPROCS) a problem
// that splits into independent components runs each Step over a
// persistent worker pool; results are bit-identical to the serial engine
// for any worker count. The pool's goroutines live only inside Step's
// barrier, so Step remains synchronous from the caller's point of view.
//
// An Engine is still not safe for concurrent use: no method — including
// the mid-run mutators SetFlowActive, SetClassDemand and SetNodeCapacity —
// may run concurrently with Step or with each other. Wrap it or use
// package dist for a concurrent, message-passing deployment.
type Engine struct {
	p   *model.Problem
	ix  *model.Index
	cfg Config

	iteration int
	rates     []float64
	consumers []int
	active    []bool

	// nodePrices/linkPrices and the capacity mirrors below are the SoA
	// operands of the Eq. 12/13 price sweeps: flat float64 arrays indexed
	// by node/link, so the per-iteration sweep is a branch-light pass over
	// contiguous memory. nodeCap/linkCap mirror Problem capacities and are
	// kept in sync by NewEngine, Reset and SetNodeCapacity (the only
	// supported capacity mutation points).
	nodePrices []float64
	linkPrices []float64
	nodeCap    []float64
	linkCap    []float64
	gamma      *gammaBank

	solvers []*rateSolver
	// scratch[s] is shard s's admission scratch; a one-shard plan uses
	// scratch[0]. Sized by the widest node, not the class count.
	scratch [][]classBC

	// pool is non-nil when the engine may shard Step across workers;
	// shards is the pool's width and the length of every per-shard slice.
	pool   *workerPool
	shards int
	// plan is Step's schedule (see stagePlan): one shard run inline, or
	// whole components fanned out over the pool, over every flow and the
	// live nodes and links. Fixed at NewEngine — Reset preserves topology —
	// and rebuilt only by ResetRouting, which changes it.
	plan *stagePlan
	// Parked constraints (DESIGN.md §9). nodeLive/linkLive mark the nodes
	// and links the plan lists; liveNodes/liveLinks are those sets,
	// ascending. Every other node or link is parked: no flow crosses it,
	// its price is exactly +0 and (when adaptive) its gamma is GammaMax, so
	// a recompute would reproduce every value it holds and Step never
	// visits it. Only NewEngine and ResetRouting change the sets; with
	// Config.FullRecompute nothing is parked. flowIDs lists every flow.
	nodeLive  []bool
	linkLive  []bool
	liveNodes []int32
	liveLinks []int32
	flowIDs   []int32
	// parkedStale makes the next Step count every parked constraint as
	// recomputed, as a full sweep's forced first iteration would after
	// NewEngine or a reset; parkedForced lists the parked nodes that
	// SetNodeCapacity forced since the last Step (a parked node's
	// nodeForced flag marks membership). Both exist only to keep
	// StepResult's skip counters equal to a sweep over every constraint.
	parkedStale  bool
	parkedForced []int32
	// closed is set by Close; stepping a closed engine panics
	// deterministically instead of racing the pool shutdown.
	closed bool
	// full disables the dirty-set machinery (Config.FullRecompute).
	full bool

	// Incremental dirty-set state (DESIGN.md §9). The epoch slices record
	// the iteration at which each quantity last changed value; a stage
	// consults them to decide whether its cached outputs are still exact.
	// The forced flags are set by mutators and Reset to dirty items whose
	// inputs changed outside Step, and cleared by the recompute they
	// trigger.
	flowForced []bool
	nodeForced []bool
	linkForced []bool
	// rateEpoch[i]: iteration e.rates[i] last changed; popEpoch[j]:
	// iteration e.consumers[j] last changed; nodePriceEpoch[b] /
	// linkPriceEpoch[l]: iteration the price last moved.
	rateEpoch      []int
	popEpoch       []int
	nodePriceEpoch []int
	linkPriceEpoch []int
	// nodeUsed/nodeBest cache admitNode's outputs per node; linkUsed
	// caches each link's usage sum. A skipped constraint reuses these
	// verbatim — they are the exact floats the skipped recomputation
	// would have produced.
	nodeUsed []float64
	nodeBest []float64
	linkUsed []float64
	// util caches the last computed objective; utilStale forces a full
	// recomputation (set by mutators and Reset).
	util      float64
	utilStale bool
	// flowUtil[i] caches flow i's objective contribution
	// (sum over the flow's classes of n_j * U_j(r_i)), so the per-Step
	// objective refresh touches only flows whose rate or populations moved
	// plus an O(flows) sum — a full class sweep would dominate Step at
	// metro scale. flowUtilEpoch[i] is the iteration the cache was last
	// written; touchIDs[s]/touchSeen[s] are shard s's dedup'd list of flows
	// whose populations the admission stage moved this iteration.
	flowUtil      []float64
	flowUtilEpoch []int
	touchIDs      [][]int32
	touchSeen     [][]int

	// Per-shard stage accumulators, each of length shards. overNode[s]
	// and overLink[s] collect shard s's max overload; the reduction over
	// shards after Step's barrier is order-independent (max is
	// associative and commutative), so the result is bit-identical to the
	// serial scan. The dirty/skip counters and changed flags reduce by
	// integer sum and boolean OR, which are order-independent too. When
	// the plan has one shard, only slot 0 is written and reduced.
	overNode       []float64
	overLink       []float64
	dirtyFlowsSh   []int
	skippedNodesSh []int
	skippedLinksSh []int
	rateChangedSh  []bool
	popChangedSh   []bool

	// shardFn is stepShard, bound once so dispatching a Step allocates
	// nothing.
	shardFn func(shard int)
	// stageMarks are the clock readings shard 0 takes after its rate and
	// node stages, on the telemetry path only.
	stageMarks [2]time.Time
}

// StepResult summarizes one LRGP iteration.
type StepResult struct {
	// Iteration is 1-based.
	Iteration int
	// Utility is the objective value (Equation 1) after the iteration's
	// consumer allocation.
	Utility float64
	// MaxNodeOverload is the largest node usage minus capacity across
	// nodes (positive only when flow-node costs alone exceed some node's
	// capacity; the greedy step never overshoots otherwise).
	MaxNodeOverload float64
	// MaxLinkOverload is the largest link usage minus capacity.
	MaxLinkOverload float64
	// StageNanos splits Step's wall time into the rate, admission and
	// link-price stages (indexed by telemetry.StageRate/StageAdmission/
	// StagePrice). Slots 0 and 1 are the rate and admission+node-price
	// spans of shard 0, which runs on the caller's goroutine; slot 2 is
	// the rest: shard 0's link stage plus, on a sharded Step, the wait for
	// the other shards. The three always sum to Step's wall time.
	// Populated only when Config.Telemetry is set; all zero otherwise, so
	// the untelemetered Step never reads the clock.
	StageNanos [3]int64
	// DirtyFlows counts flows whose rate problem was re-solved this
	// iteration; SkippedNodes and SkippedLinks count constraints that
	// reused their cached admission/usage instead of recomputing, parked
	// ones included. Deterministic for any worker count. With
	// Config.FullRecompute every flow is dirty and nothing is skipped.
	DirtyFlows   int
	SkippedNodes int
	SkippedLinks int
}

// NewEngine validates the problem and prepares an engine. The initial state
// is the LRGP starting point: all rates at r^min, all populations zero, all
// prices at the configured initial values.
func NewEngine(p *model.Problem, cfg Config) (*Engine, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := cfg.normalized()
	ix := model.NewIndex(p)

	shards := 1
	if c.Workers > 1 {
		n := len(p.Flows)
		if len(p.Nodes) > n {
			n = len(p.Nodes)
		}
		if len(p.Links) > n {
			n = len(p.Links)
		}
		if n >= minParallelItems {
			shards = c.Workers
		}
	}

	e := &Engine{
		p:          p,
		ix:         ix,
		cfg:        c,
		full:       c.FullRecompute,
		rates:      make([]float64, len(p.Flows)),
		consumers:  make([]int, len(p.Classes)),
		active:     make([]bool, len(p.Flows)),
		nodePrices: make([]float64, len(p.Nodes)),
		linkPrices: make([]float64, len(p.Links)),
		nodeCap:    make([]float64, len(p.Nodes)),
		linkCap:    make([]float64, len(p.Links)),
		nodeLive:   make([]bool, len(p.Nodes)),
		linkLive:   make([]bool, len(p.Links)),
		flowIDs:    iota32(len(p.Flows)),
		gamma:      newGammaBank(c, len(p.Nodes)),
		solvers:    make([]*rateSolver, len(p.Flows)),
		shards:     shards,
		scratch:    make([][]classBC, shards),

		flowForced:     make([]bool, len(p.Flows)),
		nodeForced:     make([]bool, len(p.Nodes)),
		linkForced:     make([]bool, len(p.Links)),
		rateEpoch:      make([]int, len(p.Flows)),
		popEpoch:       make([]int, len(p.Classes)),
		nodePriceEpoch: make([]int, len(p.Nodes)),
		linkPriceEpoch: make([]int, len(p.Links)),
		nodeUsed:       make([]float64, len(p.Nodes)),
		nodeBest:       make([]float64, len(p.Nodes)),
		linkUsed:       make([]float64, len(p.Links)),
		utilStale:      true,
		flowUtil:       make([]float64, len(p.Flows)),
		flowUtilEpoch:  make([]int, len(p.Flows)),
		touchIDs:       make([][]int32, shards),
		touchSeen:      make([][]int, shards),

		overNode:       make([]float64, shards),
		overLink:       make([]float64, shards),
		dirtyFlowsSh:   make([]int, shards),
		skippedNodesSh: make([]int, shards),
		skippedLinksSh: make([]int, shards),
		rateChangedSh:  make([]bool, shards),
		popChangedSh:   make([]bool, shards),
	}
	// The admission sort never sees more candidates than the widest node
	// has classes; sizing scratch by that (not the total class count) keeps
	// per-shard scratch bounded on metro-scale problems where classes
	// number ~10^6 but each node carries a few dozen.
	maxNodeClasses := 0
	for b := range p.Nodes {
		if n := len(ix.ClassesByNode(model.NodeID(b))); n > maxNodeClasses {
			maxNodeClasses = n
		}
	}
	for s := range e.scratch {
		e.scratch[s] = make([]classBC, 0, maxNodeClasses)
		e.touchIDs[s] = make([]int32, 0, len(p.Flows))
		e.touchSeen[s] = make([]int, len(p.Flows))
	}
	for i := range p.Flows {
		e.rates[i] = p.Flows[i].RateMin
		e.active[i] = true
		e.flowForced[i] = true
		e.solvers[i] = newRateSolver(p, ix, model.FlowID(i))
	}
	for b := range e.nodePrices {
		e.nodePrices[b] = c.InitialNodePrice
		e.nodeCap[b] = p.Nodes[b].Capacity
		if !e.nodeParked(b) {
			e.nodeLive[b], e.nodeForced[b] = true, true
			e.liveNodes = append(e.liveNodes, int32(b))
		}
	}
	for l := range e.linkPrices {
		e.linkPrices[l] = c.InitialLinkPrice
		e.linkCap[l] = p.Links[l].Capacity
		if !e.linkParked(l) {
			e.linkLive[l], e.linkForced[l] = true, true
			e.liveLinks = append(e.liveLinks, int32(l))
		}
	}
	e.parkedStale = true
	e.plan = newStagePlan(ix, e.flowIDs, e.liveNodes, e.liveLinks, shards)
	e.shardFn = e.stepShard
	if shards > 1 {
		e.pool = newWorkerPool(shards - 1)
		// Backstop for engines dropped without Close: idle workers hold no
		// reference to e (see workerPool), so the finalizer can fire and
		// release them.
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	return e, nil
}

// Close releases the engine's worker pool and marks the engine closed;
// Step, Solve and Reset panic deterministically afterwards (for serial and
// sharded engines alike — before this flag a closed sharded engine died on
// the pool's closed channel, and a serial one silently kept working).
// Close is idempotent. Abandoned engines are closed by the garbage
// collector as a backstop, but deterministic shutdown should call Close
// explicitly.
func (e *Engine) Close() {
	e.closed = true
	if e.pool != nil {
		runtime.SetFinalizer(e, nil)
		e.pool.close()
	}
}

// Step performs one synchronous LRGP iteration: Algorithm 1 at every flow
// source, then Algorithm 2 and the Equation 12 price update at every node,
// then Algorithm 3 (Equation 13) for every link.
//
// Step runs the engine's stage plan (stagePlan). When the crossing-writes
// analysis proves the problem decomposes into at least Workers independent
// components, each worker runs all three stages back to back over its
// whole components — one barrier per Step. Otherwise the plan is one shard
// holding everything, run inline on the caller's goroutine. Both perform
// exactly the serial arithmetic: within a shard the stages run in serial
// order, and every cross-shard reduction (max overload, counter sums,
// changed flags) is order-independent, so results are bit-identical for
// any worker count.
//
// Step is incremental: a flow re-solves its rate problem only when some
// price on its path or some consuming class's population changed last
// iteration; a node re-runs admission only when a crossing flow's rate
// changed this iteration (or a mutator touched its inputs); a link re-sums
// its usage under the same rule. Everything else reuses the previous
// iteration's values verbatim, so results are bit-identical to a full
// recompute (Config.FullRecompute; see DESIGN.md §9 for the invariants).
// The O(1) price updates and adaptive-gamma observations run on every
// live constraint — they move every iteration until the exact fixpoint.
// Parked constraints, already at that fixpoint with no flow to perturb
// them, are not visited at all.
func (e *Engine) Step() StepResult {
	if e.closed {
		panic("core: Engine.Step called after Close")
	}
	e.iteration++
	res := StepResult{Iteration: e.iteration}

	// Stage timing exists only on the telemetry path: the tel == nil
	// branches keep the disabled Step free of clock reads entirely.
	tel := e.cfg.Telemetry
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}

	shards := e.plan.shards
	if shards > 1 {
		e.pool.run(e.shardFn, shards)
	} else {
		e.stepShard(0)
	}
	var rateChanged, popChanged bool
	for s := 0; s < shards; s++ {
		res.DirtyFlows += e.dirtyFlowsSh[s]
		rateChanged = rateChanged || e.rateChangedSh[s]
		if e.overNode[s] > res.MaxNodeOverload {
			res.MaxNodeOverload = e.overNode[s]
		}
		res.SkippedNodes += e.skippedNodesSh[s]
		popChanged = popChanged || e.popChangedSh[s]
		if e.overLink[s] > res.MaxLinkOverload {
			res.MaxLinkOverload = e.overLink[s]
		}
		res.SkippedLinks += e.skippedLinksSh[s]
	}
	if !e.parkedStale {
		res.SkippedNodes += len(e.nodeLive) - len(e.liveNodes) - len(e.parkedForced)
		res.SkippedLinks += len(e.linkLive) - len(e.liveLinks)
	}
	e.parkedStale = false
	for _, b := range e.parkedForced {
		e.nodeForced[b] = false
	}
	e.parkedForced = e.parkedForced[:0]
	if tel != nil {
		m := e.stageMarks
		res.StageNanos[0] = m[0].Sub(t0).Nanoseconds()
		res.StageNanos[1] = m[1].Sub(m[0]).Nanoseconds()
		res.StageNanos[2] = time.Since(m[1]).Nanoseconds()
	}

	// The objective only moves when a rate or population moved; otherwise
	// the cached sum is the exact value the full recomputation would
	// produce. Full mode recomputes unconditionally, like the
	// pre-incremental engine. The sum runs over the per-flow cache in
	// ascending flow order — the same association Utility uses — so the
	// incremental value is bit-identical to the from-scratch one.
	if e.full || rateChanged || popChanged || e.utilStale {
		total := 0.0
		for _, u := range e.flowUtil {
			total += u
		}
		e.util = total
		e.utilStale = false
	}
	res.Utility = e.util

	if tel != nil {
		tel.ObserveStep(res.StageNanos, res.Utility,
			res.MaxNodeOverload, res.MaxLinkOverload,
			len(e.p.Nodes), len(e.p.Links),
			res.DirtyFlows, res.SkippedNodes+res.SkippedLinks)
	}
	return res
}

// flowDirty reports whether flow i's rate inputs changed during iteration
// prev: a link or node price on its path moved, or a consuming class's
// population moved. Clean flows re-solve to the exact same rate, so the
// engine keeps the cached value instead.
func (e *Engine) flowDirty(i int, prev int) bool {
	fid := model.FlowID(i)
	for _, l := range e.ix.LinksByFlow(fid) {
		if e.linkPriceEpoch[l] == prev {
			return true
		}
	}
	for _, b := range e.ix.NodesByFlow(fid) {
		if e.nodePriceEpoch[b] == prev {
			return true
		}
	}
	for _, cid := range e.ix.ClassesByFlow(fid) {
		if e.popEpoch[cid] == prev {
			return true
		}
	}
	return false
}

// rateOne runs Algorithm 1 for flow i (writes only e.rates[i]).
func (e *Engine) rateOne(i int) {
	if !e.active[i] {
		e.rates[i] = 0
		return
	}
	price := e.flowPrice(model.FlowID(i))
	e.rates[i] = e.solvers[i].solve(e.consumers, price)
}

// rateItem runs the incremental rate update for flow i (skip check,
// Algorithm 1, epoch bookkeeping), accumulating into the caller's dirty
// count and changed flag.
func (e *Engine) rateItem(i, prev int, dirty *int, changed *bool) {
	if !(e.full || e.flowForced[i] || e.flowDirty(i, prev)) {
		return
	}
	e.flowForced[i] = false
	*dirty++
	old := e.rates[i]
	e.rateOne(i)
	if e.rates[i] != old {
		e.rateEpoch[i] = e.iteration
		*changed = true
	}
}

// rateList runs the rate stage over a shard's flow list, writing shard
// slot s of the stage accumulators.
func (e *Engine) rateList(ids []int32, s int) {
	prev := e.iteration - 1
	dirty, changed := 0, false
	for _, i := range ids {
		e.rateItem(int(i), prev, &dirty, &changed)
	}
	e.dirtyFlowsSh[s] = dirty
	e.rateChangedSh[s] = changed
}

// admitItem runs the admission half of the node stage for node b:
// Algorithm 2 when a crossing flow's rate changed this iteration (or a
// mutator forced the node), cache reuse otherwise. Population changes mark
// the node's crossing flows in shard s's touch list so the flow-utility
// cache refresh knows what moved.
func (e *Engine) admitItem(b, s int, scratch []classBC, skipped *int, popChanged *bool) {
	bid := model.NodeID(b)
	recompute := e.full || e.nodeForced[b]
	if !recompute {
		t := e.iteration
		for _, i := range e.ix.FlowsByNode(bid) {
			if e.rateEpoch[i] == t {
				recompute = true
				break
			}
		}
	}
	if !recompute {
		*skipped++
		return
	}
	e.nodeForced[b] = false
	out := admitNode(e.p, e.ix, bid, e.rates, e.active, e.consumers, scratch,
		e.popEpoch, e.iteration)
	e.nodeUsed[b], e.nodeBest[b] = out.used, out.bestUnsatisfied
	if out.popChanged {
		*popChanged = true
		e.touchFlows(s, bid)
	}
}

// touchFlows adds node b's crossing flows to shard s's touch list —
// a superset of the flows whose populations actually moved, which is safe:
// re-deriving a clean flow's cached utility reproduces the identical
// float. touchSeen dedups per shard and iteration, bounding the list by
// the flow count so appends never grow the preallocated backing array.
func (e *Engine) touchFlows(s int, b model.NodeID) {
	t := e.iteration
	seen := e.touchSeen[s]
	ids := e.touchIDs[s]
	for _, i := range e.ix.FlowsByNode(b) {
		if seen[i] != t {
			seen[i] = t
			ids = append(ids, int32(i))
		}
	}
	e.touchIDs[s] = ids
}

// nodePriceList is the price half of the node stage over a shard's node
// list: the Equation 12 sweep as a branch-light pass over the flat
// price/used/best/capacity arrays, returning the shard's max overload.
// It is split from admission so the sweep reads SoA state the admission
// pass has fully settled — admission never reads prices, so running all
// admissions before all price updates performs the serial arithmetic
// exactly.
func (e *Engine) nodePriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	prices, used, best, caps := e.nodePrices, e.nodeUsed, e.nodeBest, e.nodeCap
	if e.cfg.Adaptive {
		for _, b := range ids {
			u, cp, prev := used[b], caps[b], prices[b]
			g := e.gamma.val[b]
			next := nodePriceUpdate(prev, best[b], u, cp, g, g)
			e.gamma.observe(int(b), priceGap(prev, best[b], u, cp), prev)
			if next != prev {
				e.nodePriceEpoch[b] = t
			}
			prices[b] = next
			if o := u - cp; o > over {
				over = o
			}
		}
		return over
	}
	g1, g2 := e.cfg.Gamma1, e.cfg.Gamma2
	for _, b := range ids {
		u, cp, prev := used[b], caps[b], prices[b]
		next := nodePriceUpdate(prev, best[b], u, cp, g1, g2)
		if next != prev {
			e.nodePriceEpoch[b] = t
		}
		prices[b] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// nodeList runs the node stage over a shard's node list — all
// admissions, then the price sweep — writing shard slot s of the stage
// accumulators.
func (e *Engine) nodeList(ids []int32, s int) {
	scratch := e.scratch[s]
	skipped, popChanged := 0, false
	for _, b := range ids {
		e.admitItem(int(b), s, scratch, &skipped, &popChanged)
	}
	e.overNode[s] = e.nodePriceList(ids)
	e.skippedNodesSh[s] = skipped
	e.popChangedSh[s] = popChanged
}

// linkUsageItem is the usage half of the link stage for link l: re-sum
// when a traversing flow's rate changed this iteration (or a mutator
// forced the link), cache reuse otherwise. The sum drops the per-flow
// active check the old inner loop carried: an inactive flow's rate is
// identically zero (rateOne and SetFlowActive both pin it), and since
// every term is non-negative, adding its exact 0.0 cannot perturb the sum.
func (e *Engine) linkUsageItem(l int, skipped *int) {
	lid := model.LinkID(l)
	recompute := e.full || e.linkForced[l]
	if !recompute {
		t := e.iteration
		for _, i := range e.ix.FlowsByLink(lid) {
			if e.rateEpoch[i] == t {
				recompute = true
				break
			}
		}
	}
	if !recompute {
		*skipped++
		return
	}
	e.linkForced[l] = false
	used := 0.0
	costs := e.ix.FlowCostsByLink(lid)
	for k, i := range e.ix.FlowsByLink(lid) {
		used += costs[k] * e.rates[i]
	}
	e.linkUsed[l] = used
}

// linkPriceList is the Equation 13 sweep over a shard's link list as a
// branch-light pass over the flat price/used/capacity arrays, returning
// the shard's max overload.
func (e *Engine) linkPriceList(ids []int32) float64 {
	over := 0.0
	t := e.iteration
	g := e.cfg.LinkGamma
	prices, used, caps := e.linkPrices, e.linkUsed, e.linkCap
	for _, l := range ids {
		u, cp, prev := used[l], caps[l], prices[l]
		next := linkPriceUpdate(prev, u, cp, g)
		if next != prev {
			e.linkPriceEpoch[l] = t
		}
		prices[l] = next
		if o := u - cp; o > over {
			over = o
		}
	}
	return over
}

// linkList runs the link stage over a shard's link list — all usage
// re-sums, then the price sweep — writing shard slot s of the stage
// accumulators.
func (e *Engine) linkList(ids []int32, s int) {
	skipped := 0
	for _, l := range ids {
		e.linkUsageItem(int(l), &skipped)
	}
	e.overLink[s] = e.linkPriceList(ids)
	e.skippedLinksSh[s] = skipped
}

// stepShard runs the whole iteration for shard s of the stage plan: the
// shard's flows, nodes and links are unions of connected components, so
// every value a stage reads was either written by this same goroutine
// earlier in the call (rates before admissions before link sums, exactly
// the serial order) or is untouched this iteration by anyone else. The
// trailing flow-utility refresh likewise touches only this shard's flows.
// Shard 0 runs on Step's goroutine and, with telemetry on, marks the end
// of its rate and node stages for StageNanos.
func (e *Engine) stepShard(s int) {
	timed := s == 0 && e.cfg.Telemetry != nil
	e.rateList(e.plan.flows[s], s)
	if timed {
		e.stageMarks[0] = time.Now()
	}
	e.nodeList(e.plan.nodes[s], s)
	if timed {
		e.stageMarks[1] = time.Now()
	}
	e.linkList(e.plan.links[s], s)

	t := e.iteration
	flows := e.plan.flows[s]
	if e.utilStale || e.full {
		for _, i := range flows {
			e.flowUtilItem(int(i))
		}
	} else {
		for _, i := range flows {
			if e.rateEpoch[i] == t {
				e.flowUtilItem(int(i))
			}
		}
		for _, i := range e.touchIDs[s] {
			if e.flowUtilEpoch[i] != t {
				e.flowUtilItem(int(i))
			}
		}
	}
	e.touchIDs[s] = e.touchIDs[s][:0]
}

// flowUtilItem recomputes flow i's cached objective contribution from the
// current rate and populations, stamping the cache epoch.
func (e *Engine) flowUtilItem(i int) {
	total := 0.0
	r := e.rates[i]
	classes := e.p.Classes
	for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
		if n := e.consumers[cid]; n != 0 {
			total += float64(n) * classes[cid].Utility.Value(r)
		}
	}
	e.flowUtil[i] = total
	e.flowUtilEpoch[i] = e.iteration
}

// flowPrice computes PL_i + PB_i (Equations 8 and 9) for flow i from the
// current prices and populations, using the index's dense per-flow cost
// views and precomputed per-(flow, node) class lists.
func (e *Engine) flowPrice(i model.FlowID) float64 {
	price := 0.0
	lcosts := e.ix.LinkCostsByFlow(i)
	for k, l := range e.ix.LinksByFlow(i) {
		price += lcosts[k] * e.linkPrices[l]
	}
	ncosts := e.ix.NodeCostsByFlow(i)
	classes := e.ix.ClassesByFlowNode(i)
	for k, b := range e.ix.NodesByFlow(i) {
		coeff := ncosts[k]
		for _, cid := range classes[k] {
			coeff += e.p.Classes[cid].CostPerConsumer * float64(e.consumers[cid])
		}
		price += coeff * e.nodePrices[b]
	}
	return price
}

// Utility returns the current objective value (Equation 1), computed from
// scratch. Classes of inactive flows contribute nothing (their populations
// are zero). The sum is grouped by flow — the same association the
// engine's per-flow cache uses — so a from-scratch value always matches
// Step's incremental one bit for bit.
func (e *Engine) Utility() float64 {
	total := 0.0
	for i := range e.p.Flows {
		r := e.rates[i]
		sub := 0.0
		for _, cid := range e.ix.ClassesByFlow(model.FlowID(i)) {
			if n := e.consumers[cid]; n != 0 {
				sub += float64(n) * e.p.Classes[cid].Utility.Value(r)
			}
		}
		total += sub
	}
	return total
}

// SetFlowActive includes or excludes a flow from subsequent iterations,
// modeling a flow source joining or leaving the system (the Figure 3
// experiment removes flow 5 mid-run). Deactivating zeroes the flow's rate
// and its classes' populations immediately.
func (e *Engine) SetFlowActive(i model.FlowID, active bool) {
	if e.active[i] == active {
		return
	}
	e.active[i] = active
	if !active {
		e.rates[i] = 0
		for _, cid := range e.ix.ClassesByFlow(i) {
			e.consumers[cid] = 0
			e.nodeForced[e.p.Classes[cid].Node] = true
		}
	} else {
		e.rates[i] = e.p.Flows[i].RateMin
	}
	// The rate and populations changed outside Step, so the epoch checks
	// cannot see it: force the flow, every node its path crosses (their
	// cached admission reflects the old rate) and every link it traverses
	// (stale usage sums). The objective moved too.
	e.flowForced[i] = true
	for _, b := range e.ix.NodesByFlow(i) {
		e.nodeForced[b] = true
	}
	for _, l := range e.ix.LinksByFlow(i) {
		e.linkForced[l] = true
	}
	e.utilStale = true
}

// FlowActive reports whether flow i participates in iterations.
func (e *Engine) FlowActive(i model.FlowID) bool { return e.active[i] }

// SetClassDemand changes a class's n^max mid-run, modeling consumers
// arriving at or leaving the system (the engine "runs all the time,
// responding to changes in workload", Section 2.1). The next iteration's
// greedy allocation picks the change up; prices adapt over the following
// iterations.
//
// Like every Engine method, SetClassDemand is safe only between Step
// calls: Step's worker goroutines read the class table and populations
// without synchronization, so a mutation concurrent with Step is a data
// race regardless of the worker count.
func (e *Engine) SetClassDemand(j model.ClassID, maxConsumers int) error {
	if j < 0 || int(j) >= len(e.p.Classes) {
		return fmt.Errorf("core: unknown class %d", j)
	}
	if maxConsumers < 0 {
		return fmt.Errorf("core: class %d demand %d < 0", j, maxConsumers)
	}
	e.p.Classes[j].MaxConsumers = maxConsumers
	if e.consumers[j] > maxConsumers {
		e.consumers[j] = maxConsumers
		// The truncated population is an out-of-Step change: the class's
		// flow must re-solve its rate and the objective moved.
		e.flowForced[e.p.Classes[j].Flow] = true
		e.utilStale = true
	}
	// Whether or not the population was truncated, the node's greedy
	// admission may now admit a different mix.
	e.nodeForced[e.p.Classes[j].Node] = true
	return nil
}

// SetNodeCapacity changes a node's capacity mid-run, modeling hardware
// degradation or scale-out. Safe only between Step calls, never
// concurrently with Step (see SetClassDemand).
func (e *Engine) SetNodeCapacity(b model.NodeID, capacity float64) error {
	if b < 0 || int(b) >= len(e.p.Nodes) {
		return fmt.Errorf("core: unknown node %d", b)
	}
	if capacity <= 0 {
		return fmt.Errorf("core: node %d capacity %g <= 0", b, capacity)
	}
	e.p.Nodes[b].Capacity = capacity
	e.nodeCap[b] = capacity
	// The admission budget changed; the cached used/bestUnsatisfied are
	// stale. (The price sweep reads the capacity mirror each iteration.)
	// A parked node stays at its fixpoint under any positive capacity; it
	// is only counted as recomputed next Step, as a full sweep would.
	switch {
	case e.nodeLive[b]:
		e.nodeForced[b] = true
	case !e.parkedStale && !e.nodeForced[b]:
		e.nodeForced[b] = true
		e.parkedForced = append(e.parkedForced, int32(b))
	}
	return nil
}

// Reset re-targets the engine at a perturbed problem, warm-starting from
// the current fixpoint: rates (clamped into p's bounds), populations
// (clamped to p's demands), prices and adaptive-gamma state all carry
// over, while the dense index views, worker pool, solvers and scratch are
// reused without reallocating. p must be topology-compatible with the
// original problem — same flows, nodes, links and classes, with the same
// class attachments and the same cost-map sparsity; only cost values,
// capacities, rate bounds, demands and utility functions may differ (see
// model.Index.Refresh). On error the engine still runs the old problem.
//
// After Reset the iteration counter restarts at zero and the first Step
// recomputes everything; subsequent iterations are incremental again. A
// sweep that Resets through nearby problems converges in far fewer
// iterations than cold-starting an engine per point — see the
// lrgp-experiments "sweep" experiment and BenchmarkSweepWarmStart.
func (e *Engine) Reset(p *model.Problem) error {
	if e.closed {
		panic("core: Engine.Reset called after Close")
	}
	if err := model.Validate(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := e.ix.Refresh(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.warmRestart(p)
	return nil
}

// ResetRouting is Reset for problems whose routing moved: the member sets
// (flows, nodes, links, classes and class attachments) must be unchanged,
// but dirty elements named by d may have gained or lost (resource, flow)
// cost entries — the shape Refresh rejects. The index is re-targeted
// incrementally (model.Index.RefreshRouting, cost proportional to the
// delta) and, unlike Reset, the live sets and the stage plan are rebuilt:
// routing defines which flows share resources and which constraints carry
// any, so the crossing-writes analysis fixed at NewEngine no longer holds.
// Both rebuilds cost O(live + delta), not O(nodes + links). Warm state
// carries over exactly as in Reset. On an index error the engine still
// runs the old problem; the rebuilds happen only after the index
// committed.
func (e *Engine) ResetRouting(p *model.Problem, d model.RoutingDelta) error {
	if e.closed {
		panic("core: Engine.ResetRouting called after Close")
	}
	if err := model.Validate(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := e.ix.RefreshRouting(p, d); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if e.cfg.Adaptive {
		// Re-routing changes the load composition on every node a dirty
		// flow now crosses, not just the nodes whose membership changed:
		// a node that keeps flow i but sees i's detoured traffic at a new
		// rate is tuned for gone conditions too, and a stepsize adapted
		// deep into an equilibrium dead band can sustain a limit cycle
		// the fresh heuristic would damp. Restart the controllers on the
		// damage footprint (reseed is idempotent; untouched nodes keep
		// their tuning, preserving warm-start locality).
		for _, b := range d.Nodes {
			e.gamma.reseed(int(b))
		}
		for _, i := range d.Flows {
			for _, b := range e.ix.NodesByFlow(i) {
				e.gamma.reseed(int(b))
			}
		}
	}
	e.liveNodes = relive(e.liveNodes, d.Nodes, e.nodeLive, e.nodeParked, func(b int) {
		e.nodeUsed[b], e.nodeBest[b] = 0, 0
	})
	e.liveLinks = relive(e.liveLinks, d.Links, e.linkLive, e.linkParked, func(l int) {
		e.linkUsed[l] = 0
	})
	e.plan = newStagePlan(e.ix, e.flowIDs, e.liveNodes, e.liveLinks, e.shards)
	e.warmRestart(p)
	return nil
}

// nodeParked reports whether node b may be parked: it is at the exact
// fixpoint of an unloaded node. With no flow or class at b, admission
// yields used = bestUnsatisfied = +0; Equation 12 maps a +0 price to +0
// (used <= capacity, capacity > 0), and a zero gap adds GammaStep to a
// gamma at GammaMax, which the clamp returns to GammaMax without touching
// the controller's other state. The overload 0 - capacity is negative, so
// the node never sets the max. (A -0 price would step to +0, so only +0
// counts.)
func (e *Engine) nodeParked(b int) bool {
	bid := model.NodeID(b)
	return !e.full && len(e.ix.FlowsByNode(bid)) == 0 && len(e.ix.ClassesByNode(bid)) == 0 &&
		math.Float64bits(e.nodePrices[b]) == 0 &&
		(!e.cfg.Adaptive || e.gamma.val[b] == e.gamma.max)
}

// linkParked reports whether link l may be parked: no flow traverses it,
// so its usage is +0, and its price is +0, which Equation 13 maps to +0
// (0 + gamma*(0 - capacity) < 0 projects to 0) with a negative overload.
func (e *Engine) linkParked(l int) bool {
	return !e.full && len(e.ix.FlowsByLink(model.LinkID(l))) == 0 &&
		math.Float64bits(e.linkPrices[l]) == 0
}

// relive returns the ascending live list after a routing change: the old
// list plus the delta's elements, less those that may be parked now, with
// live updated to match and zero called on each newly parked element to
// clear its usage caches (a recompute would produce exactly +0). No other
// element can change status: a parked element outside the delta still
// carries no flow, and nothing has moved its price or gamma — Step never
// visits it, and ResetRouting reseeds gamma only at delta nodes and at
// nodes a dirty flow crosses, which are loaded.
func relive[T ~int](old []int32, delta []T, live []bool, parked func(int) bool, zero func(int)) []int32 {
	next := make([]int32, 0, len(old)+len(delta))
	next = append(next, old...)
	for _, v := range delta {
		if !live[v] {
			live[v] = true
			next = append(next, int32(v))
		}
	}
	kept := next[:0]
	for _, v := range next {
		if parked(int(v)) {
			live[v] = false
			zero(int(v))
			continue
		}
		kept = append(kept, v)
	}
	slices.Sort(kept)
	return kept
}

// warmRestart is the shared tail of Reset and ResetRouting: re-targets
// solvers at p, clamps the carried-over rates and populations into p's
// bounds, and restarts the incremental machinery so the first Step
// recomputes everything.
func (e *Engine) warmRestart(p *model.Problem) {
	e.p = p
	for i := range e.solvers {
		e.solvers[i].bind(p)
	}
	for i := range p.Flows {
		if e.active[i] {
			e.rates[i] = clamp(e.rates[i], p.Flows[i].RateMin, p.Flows[i].RateMax)
		}
	}
	for j := range p.Classes {
		if e.consumers[j] > p.Classes[j].MaxConsumers {
			e.consumers[j] = p.Classes[j].MaxConsumers
		}
	}

	// Every cached value is suspect under the new problem: restart the
	// epoch clock and force a full first iteration. The epoch and
	// touch-dedup arrays must really be cleared, not just left behind —
	// the restarted iteration counter will revisit their old values, and a
	// stale match would wrongly skip a recompute.
	e.iteration = 0
	e.util, e.utilStale = 0, true
	for i := range e.flowForced {
		e.flowForced[i] = true
		e.rateEpoch[i] = 0
		e.flowUtilEpoch[i] = 0
	}
	for b := range e.nodeForced {
		e.nodeForced[b] = e.nodeLive[b]
		e.nodePriceEpoch[b] = 0
		e.nodeCap[b] = p.Nodes[b].Capacity
	}
	for l := range e.linkForced {
		e.linkForced[l] = e.linkLive[l]
		e.linkPriceEpoch[l] = 0
		e.linkCap[l] = p.Links[l].Capacity
	}
	for j := range e.popEpoch {
		e.popEpoch[j] = 0
	}
	// Parked constraints keep their fixpoint values; the next Step counts
	// them as recomputed, like every forced constraint.
	e.parkedStale = true
	e.parkedForced = e.parkedForced[:0]
	for s := range e.touchSeen {
		seen := e.touchSeen[s]
		for i := range seen {
			seen[i] = 0
		}
		e.touchIDs[s] = e.touchIDs[s][:0]
	}
}

// Iteration returns the number of completed iterations.
func (e *Engine) Iteration() int { return e.iteration }

// Problem returns the engine's problem.
func (e *Engine) Problem() *model.Problem { return e.p }

// Index returns the engine's precomputed lookup index.
func (e *Engine) Index() *model.Index { return e.ix }

// Allocation returns a copy of the current rates and populations.
func (e *Engine) Allocation() model.Allocation {
	a := model.Allocation{
		Rates:     make([]float64, len(e.rates)),
		Consumers: make([]int, len(e.consumers)),
	}
	copy(a.Rates, e.rates)
	copy(a.Consumers, e.consumers)
	return a
}

// NodePrices returns a copy of the node price vector.
func (e *Engine) NodePrices() []float64 {
	out := make([]float64, len(e.nodePrices))
	copy(out, e.nodePrices)
	return out
}

// LinkPrices returns a copy of the link price vector.
func (e *Engine) LinkPrices() []float64 {
	out := make([]float64, len(e.linkPrices))
	copy(out, e.linkPrices)
	return out
}

// Gammas returns a copy of the per-node adaptive stepsizes (meaningful only
// with Config.Adaptive).
func (e *Engine) Gammas() []float64 {
	out := make([]float64, len(e.gamma.val))
	copy(out, e.gamma.val)
	return out
}

// Result summarizes a Solve run.
type Result struct {
	// Utility is the objective value at the final iteration.
	Utility float64
	// Iterations is the number of iterations executed.
	Iterations int
	// Converged reports whether the 0.1% amplitude rule was met.
	Converged bool
	// ConvergedAt is the first iteration satisfying the rule (or -1).
	ConvergedAt int
	// Allocation is the final allocation.
	Allocation model.Allocation
	// Trace is the utility after each iteration.
	Trace []float64
}

// Solve runs until the paper's convergence rule (utility oscillation
// amplitude < 0.1% over a trailing window) or maxIter iterations,
// whichever comes first, and returns the outcome. Iterations continue for
// one full window after first detection so the reported utility is the
// settled value.
func (e *Engine) Solve(maxIter int) Result {
	if maxIter <= 0 {
		maxIter = 250
	}
	det := metrics.NewConvergenceDetector(0, 0)
	trace := make([]float64, 0, maxIter)
	for t := 0; t < maxIter; t++ {
		r := e.Step()
		trace = append(trace, r.Utility)
		if det.Observe(r.Utility) {
			break
		}
	}
	e.cfg.Telemetry.ObserveConvergence(det.Converged(), det.ConvergedAt())
	return Result{
		Utility:     trace[len(trace)-1],
		Iterations:  len(trace),
		Converged:   det.Converged(),
		ConvergedAt: det.ConvergedAt(),
		Allocation:  e.Allocation(),
		Trace:       trace,
	}
}
