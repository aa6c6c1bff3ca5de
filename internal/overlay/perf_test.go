package overlay

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
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

// resolveWork counts one resolve path's work deterministically, in two
// parts. Build work is the 8-byte words the path allocates: every router,
// problem, index, engine and stage-plan build allocates what it builds,
// and the allocator zeroes each word. Solve work is, for every Step, the
// flows re-solved plus the nodes and links recomputed (from StepResult;
// Step itself allocates nothing).
type resolveWork struct {
	words, items uint64
	iters        int
	converged    bool
}

func (w resolveWork) total() uint64 { return w.words + w.items }

// measureResolve runs build, then Solve's loop on the engine it returns
// (the same detector and cap as Engine.Solve), and counts the work.
func measureResolve(tb testing.TB, maxIter int, build func() *core.Engine) (resolveWork, *core.Engine) {
	tb.Helper()
	var w resolveWork
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng := build()
	p := eng.Problem()
	nodes, links := len(p.Nodes), len(p.Links)
	det := metrics.NewConvergenceDetector(0, 0)
	for w.iters < maxIter && !w.converged {
		r := eng.Step()
		w.iters++
		w.items += uint64(r.DirtyFlows + nodes - r.SkippedNodes + links - r.SkippedLinks)
		w.converged = det.Observe(r.Utility)
	}
	runtime.ReadMemStats(&m1)
	w.words = (m1.TotalAlloc - m0.TotalAlloc) / 8
	return w, eng
}

// TestWarmResolveSpeedup10k is the headline acceptance gate: on a
// 10k-node topology, a single-link failure handled by RepairLink +
// ResetRouting + warm re-solve must do at least 5x less work than a cold
// rebuild (NewRouter + NewEngine + solve), with every unaffected flow
// keeping bit-identical trees and allocations. Work is counted, not timed
// (resolveWork), so the gate holds on a loaded host; the wall-clock ratio
// is logged. Building a fresh engine on the repaired router instead of
// calling ResetRouting fails the gate.
func TestWarmResolveSpeedup10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node gate skipped in -short")
	}
	const pods, podSize, maxIter = 200, 50, 4000
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
	pre := eng.Solve(maxIter)
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

	var st RepairStats
	warmStart := time.Now()
	warm, _ := measureResolve(t, maxIter, func() *core.Engine {
		if st, err = r.RepairLink(li); err != nil {
			t.Fatal(err)
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatal(err)
		}
		return eng
	})
	warmDur := time.Since(warmStart)
	if !warm.converged {
		t.Fatalf("warm re-solve did not converge in %d iterations", warm.iters)
	}
	if st.Affected != 1 || st.Rerouted != 1 {
		t.Fatalf("repair stats affected=%d rerouted=%d, want 1/1 (pod-0 flow only)", st.Affected, st.Rerouted)
	}
	warmAlloc := eng.Allocation()

	// Unaffected flows: trees shared verbatim, allocations bit-identical.
	for fi := 1; fi < len(flows); fi++ {
		cur := r.Tree(model.FlowID(fi))
		if !sameSlice(treesBefore[fi].Links, cur.Links) || !sameSlice(treesBefore[fi].Nodes, cur.Nodes) {
			t.Fatalf("unaffected flow %d tree re-allocated", fi)
		}
		if warmAlloc.Rates[fi] != base.Rates[fi] {
			t.Fatalf("unaffected flow %d rate moved: %g -> %g", fi, base.Rates[fi], warmAlloc.Rates[fi])
		}
	}
	for j := range base.Consumers {
		if r.Problem().Classes[j].Flow == 0 {
			continue
		}
		if warmAlloc.Consumers[j] != base.Consumers[j] {
			t.Fatalf("unaffected class %d population moved: %d -> %d", j, base.Consumers[j], warmAlloc.Consumers[j])
		}
	}

	// Cold rebuild on the same (mutated) topology.
	coldStart := time.Now()
	cold, ec := measureResolve(t, maxIter, func() *core.Engine {
		rc, err := NewRouter(tp, caps, flows)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := core.NewEngine(rc.Problem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ec
	})
	coldDur := time.Since(coldStart)
	defer ec.Close()
	if !cold.converged {
		t.Fatalf("cold solve did not converge in %d iterations", cold.iters)
	}

	// Same optimum (the warm path just got there cheaper).
	warmU, coldU := eng.Utility(), ec.Utility()
	rel := (warmU - coldU) / coldU
	if rel < -1e-3 || rel > 1e-3 {
		t.Fatalf("warm utility %g vs cold %g (rel %g)", warmU, coldU, rel)
	}

	ratio := float64(cold.total()) / float64(warm.total())
	t.Logf("single-link failure at 10k nodes: warm %d words + %d items (%d iters), cold %d words + %d items (%d iters): %.1fx less work; wall clock warm %v vs cold %v (%.1fx)",
		warm.words, warm.items, warm.iters, cold.words, cold.items, cold.iters, ratio,
		warmDur, coldDur, float64(coldDur)/float64(warmDur))
	if ratio < 5 {
		t.Fatalf("warm re-solve does %.2fx less work than a cold rebuild, want >= 5x", ratio)
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
