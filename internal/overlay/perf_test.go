package overlay

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// podTopology builds `pods` disjoint ring components of podSize nodes each
// (so a single ring-link failure always has a detour) with one flow per
// pod: source at the pod base, subscribers at the quarter points. Every
// pod is overprovisioned — its fixpoint is rates at RateMax with full
// admission, reached exactly — except pod 0, whose node capacities are
// tight enough to keep admission contended. Failures in pod 0 therefore
// perturb only pod 0, and the other pods' allocations must stay
// bit-identical across a warm re-solve.
func podTopology(pods, podSize int) (*Topology, []float64, []FlowSpec) {
	n := pods * podSize
	tp := NewTopology(n)
	caps := make([]float64, n)
	flows := make([]FlowSpec, 0, pods)
	for p := 0; p < pods; p++ {
		base := p * podSize
		for k := 0; k < podSize; k++ {
			_, _, _ = tp.AddBidirectional(model.NodeID(base+k), model.NodeID(base+(k+1)%podSize), 1e9)
		}
		cap := 1e9
		if p == 0 {
			// Contended: subscriber nodes host 200 units of relay work at
			// full rate plus 500 units of wanted admission against a 400
			// budget, so prices must find the marginal consumer.
			cap = 400
		}
		for k := 0; k < podSize; k++ {
			caps[base+k] = cap
		}
		fs := FlowSpec{
			Name: "pod", Source: model.NodeID(base),
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for _, q := range []int{1, 2, 3} {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(base + q*podSize/4),
				MaxConsumers: 100, CostPerConsumer: 5,
				Utility: utility.NewLog(float64(5 * q)),
			})
		}
		flows = append(flows, fs)
	}
	return tp, caps, flows
}

// TestWarmResolveSpeedup10k is the headline acceptance gate: on a
// 10k-node topology, a single-link failure handled by RepairLink +
// ResetRouting + warm Solve must re-converge at least 5x faster
// end-to-end than a cold rebuild (NewRouter + NewEngine + Solve), with
// every unaffected flow keeping bit-identical trees and allocations.
func TestWarmResolveSpeedup10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node gate skipped in -short")
	}
	const pods, podSize = 200, 50
	tp, caps, flows := podTopology(pods, podSize)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 1}
	eng, err := core.NewEngine(r.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pre := eng.Solve(4000)
	if !pre.Converged {
		t.Fatalf("pre-failure solve did not converge in %d iterations", pre.Iterations)
	}
	base := pre.Allocation
	treesBefore := make([]Tree, len(flows))
	for fi := range flows {
		treesBefore[fi] = r.Tree(model.FlowID(fi))
	}

	// Fail a pod-0 ring link that flow 0's tree uses.
	li := r.Tree(0).Links[0]

	warmStart := time.Now()
	st, err := r.RepairLink(li)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
		t.Fatal(err)
	}
	warm := eng.Solve(4000)
	warmDur := time.Since(warmStart)
	if !warm.Converged {
		t.Fatalf("warm re-solve did not converge in %d iterations", warm.Iterations)
	}
	if st.Affected != 1 || st.Rerouted != 1 {
		t.Fatalf("repair stats affected=%d rerouted=%d, want 1/1 (pod-0 flow only)", st.Affected, st.Rerouted)
	}

	// Unaffected flows: trees shared verbatim, allocations bit-identical.
	for fi := 1; fi < len(flows); fi++ {
		cur := r.Tree(model.FlowID(fi))
		if !sameSlice(treesBefore[fi].Links, cur.Links) || !sameSlice(treesBefore[fi].Nodes, cur.Nodes) {
			t.Fatalf("unaffected flow %d tree re-allocated", fi)
		}
		if warm.Allocation.Rates[fi] != base.Rates[fi] {
			t.Fatalf("unaffected flow %d rate moved: %g -> %g", fi, base.Rates[fi], warm.Allocation.Rates[fi])
		}
	}
	for j := range base.Consumers {
		if r.Problem().Classes[j].Flow == 0 {
			continue
		}
		if warm.Allocation.Consumers[j] != base.Consumers[j] {
			t.Fatalf("unaffected class %d population moved: %d -> %d", j, base.Consumers[j], warm.Allocation.Consumers[j])
		}
	}

	// Cold rebuild on the same (mutated) topology.
	coldStart := time.Now()
	rc, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := core.NewEngine(rc.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	cold := ec.Solve(4000)
	coldDur := time.Since(coldStart)
	if !cold.Converged {
		t.Fatalf("cold solve did not converge in %d iterations", cold.Iterations)
	}

	// Same optimum (the warm path just got there cheaper).
	rel := (warm.Utility - cold.Utility) / cold.Utility
	if rel < -1e-3 || rel > 1e-3 {
		t.Fatalf("warm utility %g vs cold %g (rel %g)", warm.Utility, cold.Utility, rel)
	}

	speedup := float64(coldDur) / float64(warmDur)
	t.Logf("single-link failure at 10k nodes: warm %v (%d iters) vs cold %v (%d iters) — %.1fx",
		warmDur, warm.Iterations, coldDur, cold.Iterations, speedup)
	if speedup < 5 {
		// Race instrumentation slows the warm path's per-iteration work
		// more than the cold build's allocation storm, so the wall-clock
		// gate only binds on uninstrumented builds; the correctness
		// assertions above ran either way.
		if raceEnabled {
			t.Logf("speedup %.2fx below the 5x gate; not enforced under -race", speedup)
		} else {
			t.Fatalf("warm re-solve speedup %.2fx < 5x gate (warm %v, cold %v)", speedup, warmDur, coldDur)
		}
	}
}

// BenchmarkTreeRepair measures one link kill + restore cycle on the
// 10k-node pod topology: the kill re-routes the single affected flow, the
// restore re-traces only the flows the healed link can reroute (here the
// same one). Allocations stay bounded by the damage (changed trees), not
// the topology.
func BenchmarkTreeRepair(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		b.Fatal(err)
	}
	li := r.Tree(0).Links[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RepairLink(li); err != nil {
			b.Fatal(err)
		}
		if _, err := r.RestoreLink(li); err != nil {
			b.Fatal(err)
		}
		r.TakeDelta()
	}
}

// BenchmarkWarmResolve measures the full warm path per failure event:
// RepairLink + ResetRouting + Solve to re-convergence, alternating kill
// and restore so every iteration starts from a converged engine.
func BenchmarkWarmResolve(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(r.Problem(), core.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	eng.Solve(4000)
	li := r.Tree(0).Links[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = r.RepairLink(li)
		} else {
			_, err = r.RestoreLink(li)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			b.Fatal(err)
		}
		eng.Solve(4000)
	}
	b.StopTimer()
	if i := b.N; i%2 == 1 { // leave the topology healed
		_, _ = r.RestoreLink(li)
	}
}

// BenchmarkColdResolve is the rebuild baseline BenchmarkWarmResolve is
// judged against: route everything, build a fresh engine, solve cold.
func BenchmarkColdResolve(b *testing.B) {
	tp, caps, flows := podTopology(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(tp, caps, flows)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(r.Problem(), core.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		eng.Solve(4000)
		eng.Close()
	}
}
