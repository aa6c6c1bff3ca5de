package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Fused-schedule equivalence: when the crossing-writes analysis proves a
// problem componentized, Step runs all three stages under one barrier —
// and must still be bit-identical to the serial engine, mutations and all.
// The Random workloads of engine_parallel_test.go are one connected
// component (classes attach anywhere), so they pin the one-shard plan;
// the Scaled workloads here replicate the base problem into independent
// copies, which is exactly the structure the fused path exists for.

// fusedTestProblem builds a componentized workload: FlowCopies independent
// replicas of the base problem, each with its own node sets, plus one
// in-component bottleneck link per flow.
func fusedTestProblem(flowCopies, nodeSetCopies int, withLinks bool) *model.Problem {
	p := workload.Scaled(workload.Config{
		FlowCopies:    flowCopies,
		NodeSetCopies: nodeSetCopies,
	})
	if withLinks {
		p = workload.WithLinkBottlenecks(p, 0.4)
	}
	return p
}

func TestFusedStepBitIdentical(t *testing.T) {
	const iters = 120
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 4; trial++ {
		p := fusedTestProblem(8, 2, trial%2 == 1)
		cfg := Config{Adaptive: trial%2 == 0}
		if !cfg.Adaptive {
			cfg.Gamma1 = 0.01 + rng.Float64()*0.2
			cfg.Gamma2 = cfg.Gamma1
		}
		serialCfg := cfg
		serialCfg.Workers = 1

		for _, workers := range []int{2, 4, 8} {
			parCfg := cfg
			parCfg.Workers = workers
			par, err := NewEngine(p.Clone(), parCfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if par.plan.shards != workers {
				t.Fatalf("trial %d workers %d: expected fused engine (%d components)",
					trial, workers, par.plan.components)
			}
			ser, err := NewEngine(p.Clone(), serialCfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			mutate := func(e *Engine, it int) {
				switch it {
				case 40:
					e.SetFlowActive(3, false)
				case 60:
					if err := e.SetClassDemand(5, 9); err != nil {
						t.Fatal(err)
					}
				case 80:
					e.SetFlowActive(3, true)
					if err := e.SetNodeCapacity(2, 2*workload.NodeCapacity); err != nil {
						t.Fatal(err)
					}
				}
			}
			for it := 0; it < iters; it++ {
				mutate(ser, it)
				mutate(par, it)
				rs, rp := ser.Step(), par.Step()
				if rs != rp {
					t.Fatalf("trial %d workers %d iter %d: StepResult %+v, serial %+v",
						trial, workers, it, rp, rs)
				}
				if it%10 == 0 || it == iters-1 {
					assertStateEqual(t, it, workers, ser, par)
				}
			}
			assertStateEqual(t, iters, workers, ser, par)
			if got, want := ser.Utility(), par.Utility(); got != want {
				t.Fatalf("trial %d workers %d: Utility() %v, serial %v", trial, workers, want, got)
			}
			par.Close()
			ser.Close()
		}
	}
}

// TestFusedResetKeepsBitIdentity: Reset restarts the epoch clock; stale
// touch-dedup or cache epochs from the previous life must not leak into
// the new run at matching iteration numbers.
func TestFusedResetKeepsBitIdentity(t *testing.T) {
	p := fusedTestProblem(8, 2, true)
	ser, err := NewEngine(p.Clone(), Config{Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(p.Clone(), Config{Adaptive: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	defer par.Close()
	if par.plan.shards != 4 {
		t.Fatal("expected fused engine")
	}
	for it := 0; it < 50; it++ {
		ser.Step()
		par.Step()
	}
	q := p.Clone()
	for b := range q.Nodes {
		q.Nodes[b].Capacity *= 0.9
	}
	if err := ser.Reset(q.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := par.Reset(q.Clone()); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 60; it++ {
		rs, rp := ser.Step(), par.Step()
		if rs != rp {
			t.Fatalf("post-Reset iter %d: StepResult %+v, serial %+v", it, rp, rs)
		}
	}
	assertStateEqual(t, 60, 4, ser, par)
}

// TestStagePlanFallsBackOnEntangledTopology: a single-component problem
// must not fuse — every shard would need every other shard's writes — so
// a Workers=4 engine runs the one-shard plan inline and stays
// bit-identical to the serial engine.
func TestStagePlanFallsBackOnEntangledTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := parallelTestProblem(rng, true)
	e, err := NewEngine(p.Clone(), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.plan.shards != 1 {
		t.Fatalf("random single-component workload runs %d shards, want 1", e.plan.shards)
	}
	if e.plan.components >= 4 {
		t.Fatalf("expected < 4 components, got %d", e.plan.components)
	}
	if s := e.Snapshot(); s.Shards != 1 || s.Workers != 4 {
		t.Errorf("snapshot reports Shards=%d Workers=%d, want 1/4", s.Shards, s.Workers)
	}
	ser, err := NewEngine(p.Clone(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	for it := 0; it < 60; it++ {
		if rs, rp := ser.Step(), e.Step(); rs != rp {
			t.Fatalf("iter %d: StepResult %+v, serial %+v", it, rp, rs)
		}
	}
	assertStateEqual(t, 60, 4, ser, e)
}

// TestStagePlanPartition: the plan must place every flow, node and link in
// exactly one shard, in ascending order, and be deterministic across
// rebuilds.
func TestStagePlanPartition(t *testing.T) {
	p := fusedTestProblem(16, 1, true)
	ix := model.NewIndex(p)
	plan := newStagePlan(ix, iota32(len(p.Flows)), iota32(len(p.Nodes)), iota32(len(p.Links)), 4)
	if plan.shards != 4 {
		t.Fatalf("expected fused plan, components=%d", plan.components)
	}
	if plan.components != 16 {
		t.Errorf("components = %d, want 16", plan.components)
	}
	check := func(name string, lists [][]int32, n int) {
		seen := make([]bool, n)
		for s, ids := range lists {
			for k, v := range ids {
				if k > 0 && ids[k-1] >= v {
					t.Fatalf("%s shard %d not ascending at %d", name, s, k)
				}
				if seen[v] {
					t.Fatalf("%s %d assigned twice", name, v)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("%s %d unassigned", name, v)
			}
		}
	}
	check("flow", plan.flows, len(p.Flows))
	check("node", plan.nodes, len(p.Nodes))
	check("link", plan.links, len(p.Links))

	again := newStagePlan(model.NewIndex(p), iota32(len(p.Flows)), iota32(len(p.Nodes)), iota32(len(p.Links)), 4)
	if !reflect.DeepEqual(plan, again) {
		t.Error("plan not deterministic across rebuilds")
	}
}

// withIdleResources returns p plus n nodes and n links that no flow
// crosses, which the engine parks (n >= 2).
func withIdleResources(p *model.Problem, n int) *model.Problem {
	q := p.Clone()
	base := len(q.Nodes)
	for k := 0; k < n; k++ {
		q.Nodes = append(q.Nodes, model.Node{ID: model.NodeID(base + k), Capacity: workload.NodeCapacity})
	}
	for k := 0; k < n; k++ {
		q.Links = append(q.Links, model.Link{ID: model.LinkID(len(q.Links)),
			From: model.NodeID(base + k), To: model.NodeID(base + (k+1)%n), Capacity: 1e6})
	}
	return q
}

// TestStepFusedNoAllocs: the fused dispatch reuses the pool, the plan
// lists and the touch buffers, so steady-state Step stays at 0 allocs/op,
// with or without parked constraints.
func TestStepFusedNoAllocs(t *testing.T) {
	for _, idle := range []int{0, 64} {
		p := fusedTestProblem(8, 2, true)
		if idle > 0 {
			p = withIdleResources(p, idle)
		}
		e, err := NewEngine(p, Config{Workers: 4, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if e.plan.shards != 4 {
			t.Fatal("expected fused engine")
		}
		if nodes, links := e.Parked(); nodes != idle || links != idle {
			t.Fatalf("%d nodes and %d links parked, want %d each", nodes, links, idle)
		}
		e.Step()
		if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
			t.Errorf("idle %d: %v allocs per fused Step, want 0", idle, allocs)
		}
	}
}
