package main

import (
	"time"

	"repro/internal/broker"
	"repro/internal/telemetry"
)

// engineLayer fills the core.* metrics from the benchmark's own solve
// accounting and the engine's telemetry handle.
func engineLayer(l map[string]float64, em *telemetry.EngineMetrics, st0 stageTimes, solves, iters, unconverged int, solveTime time.Duration) {
	if solves == 0 {
		return
	}
	l["core.solve_ms"] = float64(solveTime) / float64(solves) / float64(time.Millisecond)
	l["core.solve_iters"] = float64(iters) / float64(solves)
	l["core.unconverged_frac"] = float64(unconverged) / float64(solves)
	if iters > 0 {
		l["core.step_us"] = float64(solveTime) / float64(iters) / float64(time.Microsecond)
	}
	if em == nil {
		return
	}
	st := stageSnapshot(em)
	for s, name := range [3]string{"core.stage_rate_us", "core.stage_admission_us", "core.stage_price_us"} {
		if n := st.n[s] - st0.n[s]; n > 0 {
			l[name] = (st.sec[s] - st0.sec[s]) / float64(n) * 1e6
		}
	}
}

// stageTimes is a reading of the engine's per-stage wall-time
// histograms: step count and total seconds per stage.
type stageTimes struct {
	n   [3]uint64
	sec [3]float64
}

func stageSnapshot(em *telemetry.EngineMetrics) stageTimes {
	var st stageTimes
	if em == nil {
		return st
	}
	for s := range st.n {
		st.n[s], st.sec[s] = em.StageSeconds[s].CountSum()
	}
	return st
}

// total is the summed stage time of all steps so far, in seconds.
func (st stageTimes) total() float64 { return st.sec[0] + st.sec[1] + st.sec[2] }

// enactLayer fills the broker's enact-path metrics from the EnactStats
// accumulated over the measured run.
func enactLayer(l map[string]float64, a, b broker.EnactStats) {
	if applies := b.Applies - a.Applies; applies > 0 {
		l["broker.noop_apply_ratio"] = float64(b.NoopApplies-a.NoopApplies) / float64(applies)
		l["broker.classes_touched"] = float64(b.ClassesTouched-a.ClassesTouched) / float64(applies)
		l["broker.flows_touched"] = float64(b.FlowsTouched-a.FlowsTouched) / float64(applies)
	}
	noop := float64(b.RouteNoops - a.RouteNoops)
	inc := float64(b.RouteIncrementals - a.RouteIncrementals)
	full := float64(b.RouteFulls - a.RouteFulls)
	if total := noop + inc + full; total > 0 {
		l["broker.route_noop"] = noop / total
		l["broker.route_incremental"] = inc / total
		l["broker.route_full"] = full / total
	}
}
