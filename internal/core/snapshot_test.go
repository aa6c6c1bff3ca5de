package core

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestSnapshot(t *testing.T) {
	p := workload.WithLinkBottlenecks(workload.Base(), 0.5)
	e, err := NewEngine(p, Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Solve(100)
	e.SetFlowActive(5, false)
	e.Step()

	s := e.Snapshot()
	if s.Iteration != e.Iteration() {
		t.Errorf("iteration = %d, want %d", s.Iteration, e.Iteration())
	}
	if s.Utility != e.Utility() {
		t.Errorf("utility = %g, want %g", s.Utility, e.Utility())
	}
	if len(s.NodeUsage) != len(p.Nodes) || len(s.LinkUsage) != len(p.Links) {
		t.Fatalf("shape: %d nodes, %d links", len(s.NodeUsage), len(s.LinkUsage))
	}
	for b := range p.Nodes {
		if s.NodeCapacity[b] != p.Nodes[b].Capacity {
			t.Errorf("node %d capacity %g", b, s.NodeCapacity[b])
		}
		if s.NodeUsage[b] < 0 || s.NodeUsage[b] > s.NodeCapacity[b]*1.5 {
			t.Errorf("node %d usage %g implausible", b, s.NodeUsage[b])
		}
	}
	if s.FlowActive[5] {
		t.Error("flow 5 reported active after removal")
	}
	if !s.FlowActive[0] {
		t.Error("flow 0 reported inactive")
	}

	// Snapshot slices are copies.
	s.NodePrices[0] = -99
	s.FlowActive[0] = false
	if e.NodePrices()[0] == -99 {
		t.Error("NodePrices aliases engine state")
	}
	if !e.FlowActive(0) {
		t.Error("FlowActive aliases engine state")
	}
}

// TestSnapshotString checks the one-line summary: iteration, utility,
// peak loads, and the workers/shards execution mode.
func TestSnapshotString(t *testing.T) {
	p := workload.WithLinkBottlenecks(workload.Base(), 0.5)
	e, err := NewEngine(p, Config{Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Solve(50)

	got := e.Snapshot().String()
	for _, want := range []string{"iter=50", "utility=", "peak-node-load=", "peak-link-load=", "workers=1 shards=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}

	sharded := Snapshot{Iteration: 3, Utility: 12.5, Workers: 8, Shards: 8}
	if s := sharded.String(); !strings.Contains(s, "workers=8 shards=8") {
		t.Errorf("sharded String() = %q", s)
	}
	// No usable capacities → no load terms rather than NaN/Inf noise.
	empty := Snapshot{NodeUsage: []float64{1}, NodeCapacity: []float64{0}}
	if s := empty.String(); strings.Contains(s, "load") {
		t.Errorf("zero-capacity String() = %q, want no load terms", s)
	}
}
