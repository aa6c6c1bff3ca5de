package core

import (
	"math/rand"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestStepTelemetryObservations: with Config.Telemetry set, Step must
// populate StageNanos and mirror its results into the registry; the
// parallel engine must report the same counters as the serial one. The
// sharded case (componentized problem, Workers=4) must also split its
// wall time across all three stages.
func TestStepTelemetryObservations(t *testing.T) {
	for _, tc := range []struct {
		workers int
		sharded bool
	}{{1, false}, {4, false}, {4, true}} {
		workers := tc.workers
		reg := telemetry.NewRegistry()
		em := telemetry.NewEngineMetrics(reg)
		rng := rand.New(rand.NewSource(5))
		p := parallelTestProblem(rng, true)
		if tc.sharded {
			p = fusedTestProblem(8, 2, true)
		}
		e, err := NewEngine(p, Config{Adaptive: true, Workers: workers, Telemetry: em})
		if err != nil {
			t.Fatal(err)
		}
		if tc.sharded && e.plan.shards <= 1 {
			t.Fatal("expected sharded engine")
		}
		const steps = 7
		var last StepResult
		for i := 0; i < steps; i++ {
			last = e.Step()
		}
		e.Close()

		if got := em.Steps.Value(); got != steps {
			t.Errorf("workers=%d: steps counter = %d, want %d", workers, got, steps)
		}
		if got := em.Utility.Value(); got != last.Utility {
			t.Errorf("workers=%d: utility gauge = %g, want %g", workers, got, last.Utility)
		}
		if got := em.MaxNodeOverload.Value(); got != last.MaxNodeOverload {
			t.Errorf("workers=%d: node overload gauge = %g, want %g", workers, got, last.MaxNodeOverload)
		}
		wantNode := uint64(steps * len(p.Nodes))
		if got := em.NodePriceUpdates.Value(); got != wantNode {
			t.Errorf("workers=%d: node price updates = %d, want %d", workers, got, wantNode)
		}
		wantLink := uint64(steps * len(p.Links))
		if got := em.LinkPriceUpdates.Value(); got != wantLink {
			t.Errorf("workers=%d: link price updates = %d, want %d", workers, got, wantLink)
		}
		for s := range em.StageSeconds {
			count, sum := em.StageSeconds[s].CountSum()
			if count != steps {
				t.Errorf("workers=%d: stage %d histogram count = %d, want %d", workers, s, count, steps)
			}
			if sum < 0 || (tc.sharded && sum <= 0) {
				t.Errorf("workers=%d sharded=%v: stage %d wall time sum = %g",
					workers, tc.sharded, s, sum)
			}
		}
		// StageNanos must be populated (a monotonic-clock stage can
		// legitimately read 0ns only on an extremely coarse clock; the
		// three stages summed should be positive).
		if last.StageNanos[0]+last.StageNanos[1]+last.StageNanos[2] <= 0 {
			t.Errorf("workers=%d: StageNanos = %v, want positive total", workers, last.StageNanos)
		}
	}
}

// TestStepWithoutTelemetryLeavesStageNanosZero: the untelemetered Step
// must not read the clock, so StageNanos stays zero.
func TestStepWithoutTelemetryLeavesStageNanosZero(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.Step(); r.StageNanos != [3]int64{} {
		t.Errorf("StageNanos = %v without telemetry, want zeros", r.StageNanos)
	}
}

// TestSolveReportsConvergence: Solve must publish the convergence
// detector's verdict to the registry.
func TestSolveReportsConvergence(t *testing.T) {
	reg := telemetry.NewRegistry()
	em := telemetry.NewEngineMetrics(reg)
	e, err := NewEngine(workload.Base(), Config{Adaptive: true, Workers: 1, Telemetry: em})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.Solve(250)
	if !res.Converged {
		t.Fatal("base workload did not converge; cannot check telemetry")
	}
	if got := em.Converged.Value(); got != 1 {
		t.Errorf("converged gauge = %g, want 1", got)
	}
	if got := em.ConvergedIteration.Value(); got != float64(res.ConvergedAt) {
		t.Errorf("converged iteration gauge = %g, want %d", got, res.ConvergedAt)
	}
	if got := em.Steps.Value(); got != uint64(res.Iterations) {
		t.Errorf("steps counter = %d, want %d", got, res.Iterations)
	}
}

// TestStepTelemetryNoAllocs: the *enabled* telemetry path is lock-free
// over preallocated state, so even the instrumented Step stays at
// 0 allocs/op on both the serial and the sharded engine. (The disabled
// path is covered by TestStepSerialNoAllocs/TestStepParallelNoAllocs.)
func TestStepTelemetryNoAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()

	ser, err := NewEngine(workload.Base(), Config{Adaptive: true, Workers: 1,
		Telemetry: telemetry.NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	ser.Step()
	if allocs := testing.AllocsPerRun(50, func() { ser.Step() }); allocs > 0 {
		t.Errorf("%v allocs per telemetered serial Step, want 0", allocs)
	}

	par, err := NewEngine(fusedTestProblem(8, 2, true), Config{Adaptive: true, Workers: 4,
		Telemetry: telemetry.NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if par.plan.shards <= 1 {
		t.Fatal("expected sharded engine")
	}
	par.Step()
	if allocs := testing.AllocsPerRun(50, func() { par.Step() }); allocs > 0 {
		t.Errorf("%v allocs per telemetered parallel Step, want 0", allocs)
	}
}
