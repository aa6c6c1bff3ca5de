package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at self-test size, untraced and
// traced, and requires every correctness check to pass and every metric
// to be reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opts := options{workload: w.name, seed: 1, seconds: 1.5, trace: trace, tiny: true}
			rep, err := runWorkload(opts, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, m.name, got)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.name, got.Value)
				}
			}
			if trace {
				checkLayerSeparation(t, w.name, rep)
			}
		}
	}
}

// checkLayerSeparation requires each workload to exercise only the
// layers it is meant to: no overlay work outside link-churn, no dist or
// transport work outside dist-churn.
func checkLayerSeparation(t *testing.T, workload string, rep *report) {
	t.Helper()
	for name, m := range rep.Metrics {
		var owner string
		switch {
		case strings.HasPrefix(name, "overlay."):
			owner = "link-churn"
		case strings.HasPrefix(name, "dist."), strings.HasPrefix(name, "transport."):
			owner = "dist-churn"
		case strings.HasPrefix(name, "autopilot."):
			owner = "demand-flash"
		default:
			continue
		}
		if workload != owner && m.Value != 0 {
			t.Errorf("%s: %s = %g, want 0 (only %s exercises that layer)", workload, name, m.Value, owner)
		}
	}
	for _, name := range []string{"broker.apply_us", "broker.publish_ns", "trace.coverage_frac"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s: %s = %g, want > 0", workload, name, rep.Metrics[name].Value)
		}
	}
	// The timed layer calls must account for the reaction: what they do
	// not cover is start lag and the benchmark's own code. dist-churn's
	// reaction is derived from round counts, so its coverage is not a
	// share of it.
	if workload != "dist-churn" {
		if c := rep.Metrics["trace.coverage_frac"].Value; c < 0.9 {
			t.Errorf("%s: trace.coverage_frac = %g, want at least 0.9", workload, c)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestRunFlags covers the command line: a bad workload or flag is an
// error with no report.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "link-churn", "--trace", "2"},
		{"--workload", "link-churn", "--seconds", "0"},
	} {
		var out strings.Builder
		code, err := run(args, &out)
		if code == 0 || err == nil || out.Len() != 0 {
			t.Errorf("run(%q) = %d, %v, output %q; want a non-zero code, an error and no output", args, code, err, out.String())
		}
	}
}
