package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Parallel-engine equivalence: for any worker count, Step must produce
// bit-identical rates, populations, prices, gammas and StepResults to the
// serial engine. The stages are data-independent within themselves and the
// only cross-shard reduction (max overload) is order-independent, so exact
// float equality — not tolerance — is the contract. `go test -race ./...`
// runs these tests and covers the sharded paths for data races.

// parallelTestProblem builds a random workload big enough that all three
// stages clear the minParallelItems cutover.
func parallelTestProblem(rng *rand.Rand, withLinks bool) *model.Problem {
	p := workload.Random(rng, workload.RandomConfig{
		Flows:          minParallelItems + rng.Intn(16),
		Nodes:          minParallelItems + rng.Intn(8),
		ClassesPerFlow: 2 + rng.Intn(3),
	})
	if withLinks {
		p = workload.WithLinkBottlenecks(p, 0.3+rng.Float64()*0.4)
	}
	return p
}

// assertStateEqual compares the complete observable engine state exactly.
func assertStateEqual(t *testing.T, iter, workers int, serial, parallel *Engine) {
	t.Helper()
	sa, pa := serial.Allocation(), parallel.Allocation()
	for i := range sa.Rates {
		if sa.Rates[i] != pa.Rates[i] {
			t.Fatalf("iter %d workers %d: rate[%d] = %v, serial %v",
				iter, workers, i, pa.Rates[i], sa.Rates[i])
		}
	}
	for j := range sa.Consumers {
		if sa.Consumers[j] != pa.Consumers[j] {
			t.Fatalf("iter %d workers %d: consumers[%d] = %d, serial %d",
				iter, workers, j, pa.Consumers[j], sa.Consumers[j])
		}
	}
	sn, pn := serial.NodePrices(), parallel.NodePrices()
	for b := range sn {
		if sn[b] != pn[b] {
			t.Fatalf("iter %d workers %d: nodePrice[%d] = %v, serial %v",
				iter, workers, b, pn[b], sn[b])
		}
	}
	sl, pl := serial.LinkPrices(), parallel.LinkPrices()
	for l := range sl {
		if sl[l] != pl[l] {
			t.Fatalf("iter %d workers %d: linkPrice[%d] = %v, serial %v",
				iter, workers, l, pl[l], sl[l])
		}
	}
	sg, pg := serial.Gammas(), parallel.Gammas()
	for b := range sg {
		if sg[b] != pg[b] {
			t.Fatalf("iter %d workers %d: gamma[%d] = %v, serial %v",
				iter, workers, b, pg[b], sg[b])
		}
	}
}

// TestParallelStepBitIdentical steps serial and parallel engines in
// lockstep for over 100 iterations on random workloads (with and without
// link bottlenecks, fixed and adaptive gamma), including mid-run mutations
// between Step calls, and requires exact equality throughout.
func TestParallelStepBitIdentical(t *testing.T) {
	const iters = 120
	rng := rand.New(rand.NewSource(20060406))
	for trial := 0; trial < 4; trial++ {
		p := parallelTestProblem(rng, trial%2 == 1)
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
			if par.pool == nil {
				t.Fatalf("trial %d workers %d: expected sharded engine", trial, workers)
			}

			// Replay the serial engine from scratch alongside each
			// parallel engine so both see the same mutation schedule.
			ser, err := NewEngine(p.Clone(), serialCfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			mutate := func(e *Engine, it int) {
				// Mid-run workload changes are applied between Step
				// calls, the only safe point now that Step fans out
				// over worker goroutines.
				switch it {
				case 40:
					e.SetFlowActive(0, false)
				case 60:
					if err := e.SetClassDemand(1, 7); err != nil {
						t.Fatal(err)
					}
				case 80:
					e.SetFlowActive(0, true)
					if err := e.SetNodeCapacity(1, 2*workload.NodeCapacity); err != nil {
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
			par.Close()
		}
	}
}

// TestParallelSolveMatchesSerial checks the whole Solve loop (convergence
// detection included) end-to-end at several worker counts.
func TestParallelSolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := parallelTestProblem(rng, true)
	ser, err := NewEngine(p.Clone(), Config{Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ser.Solve(150)
	for _, workers := range []int{2, 4, 8} {
		par, err := NewEngine(p.Clone(), Config{Adaptive: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := par.Solve(150)
		par.Close()
		if got.Utility != want.Utility || got.Iterations != want.Iterations ||
			got.Converged != want.Converged || got.ConvergedAt != want.ConvergedAt {
			t.Fatalf("workers %d: Solve result %+v, serial %+v", workers, got, want)
		}
		for i := range want.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("workers %d: trace[%d] = %v, serial %v",
					workers, i, got.Trace[i], want.Trace[i])
			}
		}
	}
}

// TestWorkersDefaultResolvesToGOMAXPROCS pins the documented Config
// semantics: 0 = GOMAXPROCS, 1 = serial, small problems stay serial.
func TestWorkersDefaultResolvesToGOMAXPROCS(t *testing.T) {
	if got := (Config{}).WithDefaults().Workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{Workers: 3}).WithDefaults().Workers; got != 3 {
		t.Errorf("Workers=3 normalized to %d", got)
	}
	// The base workload (6 flows, 3 nodes) is below the parallel cutover:
	// no pool regardless of the worker count.
	e, err := NewEngine(workload.Base(), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.pool != nil {
		t.Error("base workload unexpectedly sharded")
	}
	if s := e.Snapshot(); s.Shards != 1 || s.Workers != 8 {
		t.Errorf("snapshot reports Shards=%d Workers=%d, want 1/8", s.Shards, s.Workers)
	}
}

// TestEngineCloseIdempotent: Close must be safe to call repeatedly and on
// serial engines.
func TestEngineCloseIdempotent(t *testing.T) {
	ser, err := NewEngine(workload.Base(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ser.Close()
	ser.Close()

	rng := rand.New(rand.NewSource(3))
	par, err := NewEngine(parallelTestProblem(rng, false), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	par.Step()
	par.Close()
	par.Close()
}

// TestStepSerialNoAllocs: the serial path must not allocate per Step —
// the admission sort, the rate solvers and the price updates all run on
// preallocated state. This is the perf guardrail for small problems that
// never clear the parallel cutover.
func TestStepSerialNoAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 1, Adaptive: true},
		{Workers: 1, Gamma1: 0.1},
	} {
		e, err := NewEngine(workload.Base(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Step() // warm up
		if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
			t.Errorf("config %+v: %v allocs per serial Step, want 0", cfg, allocs)
		}
	}
}

// TestStepParallelNoAllocs: dispatching shards over the persistent pool
// must not allocate either — tasks, the shard closure and scratch are all
// reused across Steps, and parked constraints are simply absent from the
// plan, including after a SetNodeCapacity on one of them.
func TestStepParallelNoAllocs(t *testing.T) {
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
		if e.plan.shards <= 1 {
			t.Fatal("expected sharded engine")
		}
		e.Step()
		if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
			t.Errorf("idle %d: %v allocs per parallel Step, want 0", idle, allocs)
		}
		if idle > 0 {
			b := model.NodeID(len(p.Nodes) - 1)
			if !e.NodeParked(b) {
				t.Fatalf("idle node %d is live", b)
			}
			if err := e.SetNodeCapacity(b, 2*workload.NodeCapacity); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() { e.Step() }); allocs > 0 {
				t.Errorf("%v allocs per parallel Step after a parked capacity change, want 0", allocs)
			}
		}
	}
}
