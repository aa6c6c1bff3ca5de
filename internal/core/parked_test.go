package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/utility"
)

// Parked-constraint equivalence: a node or link that no flow crosses, at
// price +0 and (adaptive) gamma GammaMax, is an exact fixpoint of Step, so
// leaving it out of the stage plan must change nothing observable. These
// tests drive overlay repairs and restores through ResetRouting on a
// mostly idle overlay, where most nodes and links park, and compare every
// Step against a FullRecompute engine (rates, populations, prices and
// gammas bitwise) and against an engine that sweeps every constraint (the
// whole StepResult, skip counters included).

// parkedRouter routes a few flows over a mostly idle heterogeneous
// overlay. Capacities are tight enough that some relay nodes and links
// bind, so their prices rise above zero and must drain after a reroute.
// The same seed always yields the same router.
func parkedRouter(t *testing.T, seed int64) *overlay.Router {
	t.Helper()
	const nodes, nFlows, subs = 1500, 10, 3
	rng := rand.New(rand.NewSource(seed))
	tp := overlay.RandomTopologyHetero(rng, nodes, 2, 60, 300)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 120 + rng.Float64()*280
	}
	flows := make([]overlay.FlowSpec, nFlows)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name:     fmt.Sprintf("f%d", fi),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < subs; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name:            fmt.Sprintf("f%d-c%d", fi, s),
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    5 + rng.Intn(20),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	r, err := overlay.NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// parkedTrio steps three engines over three identical routers in
// lockstep: full (FullRecompute), ref (sweeps every constraint) and
// parked (the engine under test).
type parkedTrio struct {
	t       *testing.T
	routers [3]*overlay.Router
	engines [3]*core.Engine
	steps   int
}

const (
	trioFull = iota
	trioRef
	trioParked
)

func newParkedTrio(t *testing.T, seed int64, cfg core.Config) *parkedTrio {
	tr := &parkedTrio{t: t}
	for k := range tr.routers {
		tr.routers[k] = parkedRouter(t, seed)
		c := cfg
		c.FullRecompute = k == trioFull
		e, err := core.NewEngine(tr.routers[k].Problem(), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		tr.engines[k] = e
	}
	tr.engines[trioRef].SweepAll()
	return tr
}

// step runs one Step on all three engines and checks them.
func (tr *parkedTrio) step() {
	t := tr.t
	t.Helper()
	tr.steps++
	rf := tr.engines[trioFull].Step()
	rr := tr.engines[trioRef].Step()
	rp := tr.engines[trioParked].Step()
	if rp != rr {
		t.Fatalf("step %d: StepResult %+v, sweep-all %+v", tr.steps, rp, rr)
	}
	if rp.Iteration != rf.Iteration ||
		math.Float64bits(rp.Utility) != math.Float64bits(rf.Utility) ||
		math.Float64bits(rp.MaxNodeOverload) != math.Float64bits(rf.MaxNodeOverload) ||
		math.Float64bits(rp.MaxLinkOverload) != math.Float64bits(rf.MaxLinkOverload) {
		t.Fatalf("step %d: StepResult %+v, full recompute %+v", tr.steps, rp, rf)
	}
	full, parked := tr.engines[trioFull], tr.engines[trioParked]
	fa, pa := full.Allocation(), parked.Allocation()
	if k := firstBitDiff(fa.Rates, pa.Rates); k >= 0 {
		t.Fatalf("step %d: rate[%d] = %v, full %v", tr.steps, k, pa.Rates[k], fa.Rates[k])
	}
	for j := range fa.Consumers {
		if fa.Consumers[j] != pa.Consumers[j] {
			t.Fatalf("step %d: consumers[%d] = %d, full %d", tr.steps, j, pa.Consumers[j], fa.Consumers[j])
		}
	}
	for _, v := range []struct {
		name       string
		full, park []float64
	}{
		{"nodePrice", full.NodePrices(), parked.NodePrices()},
		{"linkPrice", full.LinkPrices(), parked.LinkPrices()},
		{"gamma", full.Gammas(), parked.Gammas()},
	} {
		if k := firstBitDiff(v.full, v.park); k >= 0 {
			t.Fatalf("step %d: %s[%d] = %v, full %v", tr.steps, v.name, k, v.park[k], v.full[k])
		}
	}
}

// apply runs op on every router, requiring identical outcomes, then
// republishes each router's delta through ResetRouting.
func (tr *parkedTrio) apply(op func(r *overlay.Router) error) error {
	t := tr.t
	t.Helper()
	var first error
	for k, r := range tr.routers {
		err := op(r)
		if k == 0 {
			first = err
		} else if (err == nil) != (first == nil) {
			t.Fatalf("router %d: %v, router 0: %v", k, err, first)
		}
	}
	if first != nil {
		return first
	}
	for k, e := range tr.engines {
		if err := e.ResetRouting(tr.routers[k].Problem(), tr.routers[k].TakeDelta()); err != nil {
			t.Fatal(err)
		}
	}
	tr.engines[trioRef].SweepAll()
	return nil
}

// setNodeCapacity applies the same capacity change to every engine.
func (tr *parkedTrio) setNodeCapacity(b model.NodeID, c float64) {
	for _, e := range tr.engines {
		if err := e.SetNodeCapacity(b, c); err != nil {
			tr.t.Fatal(err)
		}
	}
}

// TestParkedConstraintsBitIdentical runs random link and node failures and
// restores on a mostly idle 1500-node overlay, at Workers 1 and 4, under
// fixed and adaptive gamma, positive initial prices, GammaInit < GammaMax
// (so reseeded nodes start away from the fixpoint) and the literal gamma
// heuristic. It also drains a relay node's price after the node loses its
// last flow and returns the flow before the price reaches zero, and
// changes the capacity of parked nodes between Steps.
func TestParkedConstraintsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"adaptive", core.Config{Adaptive: true}},
		{"fixed", core.Config{Gamma1: 0.05}},
		{"initial-prices", core.Config{Adaptive: true, InitialNodePrice: 0.5, InitialLinkPrice: 0.2}},
		{"gamma-init", core.Config{Adaptive: true, GammaInit: 0.02}},
		{"gamma-literal", core.Config{Adaptive: true, GammaLiteral: true}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Workers = workers
				runParkedSequence(t, cfg)
			})
		}
	}
}

func runParkedSequence(t *testing.T, cfg core.Config) {
	const seed, events = 11, 24
	tr := newParkedTrio(t, seed, cfg)
	for it := 0; it < 150; it++ {
		tr.step()
	}
	r := tr.routers[trioParked]
	parked := tr.engines[trioParked]
	tp := r.Topology()
	anchored := make([]bool, tp.NodeCount())
	for _, fl := range r.Problem().Flows {
		anchored[fl.Source] = true
	}
	for _, c := range r.Problem().Classes {
		anchored[c.Node] = true
	}

	// A relay node with a positive price loses its last flow: it stays
	// live while its price drains, then regains the flow before the price
	// reaches zero.
	relay := model.NodeID(-1)
	prices := parked.NodePrices()
	for b := 0; b < tp.NodeCount(); b++ {
		if !anchored[b] && prices[b] > 0 && len(r.FlowsThroughNode(model.NodeID(b))) > 0 {
			if tr.apply(func(r *overlay.Router) error { _, err := r.RepairNode(model.NodeID(b)); return err }) == nil {
				relay = model.NodeID(b)
				break
			}
		}
	}
	if relay < 0 {
		t.Fatal("no survivable relay failure at a positive price; the drain case is vacuous")
	}
	for it := 0; it < 3; it++ {
		tr.step()
	}
	if p := parked.NodePrices()[relay]; len(r.FlowsThroughNode(relay)) != 0 || !(p > 0) || parked.NodeParked(relay) {
		t.Fatalf("relay %d after failure: %d flows, price %v, parked %v; want 0 flows, a draining price, live",
			relay, len(r.FlowsThroughNode(relay)), p, parked.NodeParked(relay))
	}
	if err := tr.apply(func(r *overlay.Router) error { _, err := r.RestoreNode(relay); return err }); err != nil {
		t.Fatal(err)
	}
	if len(r.FlowsThroughNode(relay)) == 0 {
		t.Fatalf("relay %d regained no flow on restore", relay)
	}

	rng := rand.New(rand.NewSource(seed))
	type failure struct {
		node bool
		id   int
	}
	var failed []failure
	maxNodes, maxLinks, capChanges, fused := 0, 0, 0, 0
	for ev := 0; ev < events; ev++ {
		if len(failed) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(failed))
			f := failed[k]
			failed = append(failed[:k], failed[k+1:]...)
			err := tr.apply(func(r *overlay.Router) error {
				var err error
				if f.node {
					_, err = r.RestoreNode(model.NodeID(f.id))
				} else {
					_, err = r.RestoreLink(f.id)
				}
				return err
			})
			if err != nil {
				t.Fatalf("event %d: restore %+v: %v", ev, f, err)
			}
		} else {
			node := rng.Intn(2) == 0
			var cand []int
			if node {
				for b := 0; b < tp.NodeCount(); b++ {
					if !anchored[b] && tp.NodeAlive(model.NodeID(b)) && len(r.FlowsThroughNode(model.NodeID(b))) > 0 {
						cand = append(cand, b)
					}
				}
			} else {
				for li := 0; li < tp.LinkCount(); li++ {
					if tp.LinkAlive(li) && len(r.FlowsThroughLink(li)) > 0 {
						cand = append(cand, li)
					}
				}
			}
			rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
			for _, id := range cand {
				err := tr.apply(func(r *overlay.Router) error {
					var err error
					if node {
						_, err = r.RepairNode(model.NodeID(id))
					} else {
						_, err = r.RepairLink(id)
					}
					return err
				})
				if err == nil {
					failed = append(failed, failure{node: node, id: id})
					break
				}
			}
		}
		n, l := parked.Parked()
		maxNodes, maxLinks = max(n, maxNodes), max(l, maxLinks)
		if parked.Snapshot().Shards > 1 {
			fused++
		}
		steps := 1 + rng.Intn(12)
		for it := 0; it < steps; it++ {
			if it == steps/2 && ev%3 == 1 {
				// A capacity change on a parked node between Steps.
				start := rng.Intn(tp.NodeCount())
				for k := 0; k < tp.NodeCount(); k++ {
					if b := model.NodeID((start + k) % tp.NodeCount()); parked.NodeParked(b) {
						tr.setNodeCapacity(b, 50+rng.Float64()*400)
						capChanges++
						break
					}
				}
			}
			tr.step()
		}
	}
	t.Logf("%d steps; at most %d of %d nodes and %d of %d links parked; %d capacity changes on parked nodes; %d of %d plans fused",
		tr.steps, maxNodes, tp.NodeCount(), maxLinks, tp.LinkCount(), capChanges, fused, events)
	if maxLinks < tp.LinkCount()/2 {
		t.Fatalf("at most %d of %d links parked; the test is not exercising parking", maxLinks, tp.LinkCount())
	}
	if maxNodes > 0 && capChanges == 0 {
		t.Fatal("no capacity change hit a parked node")
	}
	if cfg.Workers > 1 && fused == 0 {
		t.Fatal("no plan fused at Workers > 1; the sharded path is not exercised")
	}
}
