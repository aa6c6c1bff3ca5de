package experiments

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestResetRoutingAllocsX11 is ResetRouting's allocation guard: on X11's
// seed-1 instance (10,000 nodes, 59,964 links, 100 flows) republishing a
// one-flow routing delta must allocate in proportion to the constraints
// the flows load, not to the topology. The engine rebuilds its live sets
// and stage plan over the ~1.5k loaded nodes and ~1.5k loaded links only,
// in a bounded number of allocations whose bytes stay below two per
// topology element; a plan over every node and link needs several 4-byte
// words per element.
func TestResetRoutingAllocsX11(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node guard skipped in -short")
	}
	r, _, _, _ := x11Router(t)
	tp := r.Topology()
	// A link that exactly one flow uses and whose failure that flow
	// survives yields a one-flow delta.
	var d model.RoutingDelta
	for li := 0; li < tp.LinkCount() && len(d.Flows) == 0; li++ {
		if len(r.FlowsThroughLink(li)) != 1 {
			continue
		}
		if _, err := r.RepairLink(li); err == nil {
			d = r.TakeDelta()
		}
	}
	if len(d.Flows) != 1 {
		t.Fatalf("no one-flow delta found (last delta names %d flows)", len(d.Flows))
	}
	elements := tp.NodeCount() + tp.LinkCount()
	for _, workers := range []int{1, 2} {
		eng, err := core.NewEngine(r.Problem(), core.Config{Adaptive: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.Solve(100)
		reset := func() {
			if err := eng.ResetRouting(r.Problem(), d); err != nil {
				t.Fatal(err)
			}
		}
		reset()
		const runs = 10
		allocs := testing.AllocsPerRun(runs, reset)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < runs; k++ {
			reset()
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("workers %d: ResetRouting of a one-flow delta: %.0f allocs, %d bytes per call (%d nodes + links)",
			workers, allocs, bytes, elements)
		if allocs > 100 {
			t.Errorf("workers %d: ResetRouting made %.0f allocations per call, want <= 100", workers, allocs)
		}
		if bytes >= 2*uint64(elements) {
			t.Errorf("workers %d: ResetRouting allocated %d bytes per call, want < %d (two per node and link)",
				workers, bytes, 2*elements)
		}
	}
}

// BenchmarkLinkChurnEventX11 times one link-churn event on X11's seed-1
// instance as the closed loop runs it: a fail or restore of a loaded link
// or relay node, TakeDelta, ResetRouting and a warm Solve capped at 100
// iterations. Events cycle through 16 links and 16 relay nodes, failing
// then restoring each.
func BenchmarkLinkChurnEventX11(b *testing.B) {
	r, elems := x11ChurnElems(b)
	eng, err := core.NewEngine(r.Problem(), core.Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	eng.Solve(400)
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elems[(i/2)%len(elems)].apply(r, i%2 == 1); err != nil {
			b.Fatal(err)
		}
		if err := eng.ResetRouting(r.Problem(), r.TakeDelta()); err != nil {
			b.Fatal(err)
		}
		iters += eng.Solve(100).Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
