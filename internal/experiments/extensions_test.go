package experiments

import (
	"bytes"
	"testing"
)

func TestPruneExperiment(t *testing.T) {
	res, err := PruneExperiment(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedClasses == 0 {
		t.Fatal("stage 1 starved no class; scenario mistuned")
	}
	if res.PrunedNodeVisits <= 0 {
		t.Errorf("pruned node visits = %d, want > 0", res.PrunedNodeVisits)
	}
	if res.UtilityGain <= 0 {
		t.Errorf("utility gain = %g, want > 0 (stage1 %.0f, stage2 %.0f)",
			res.UtilityGain, res.Stage1.Result.Utility, res.Stage2.Result.Utility)
	}
}

func TestMultirateExperiment(t *testing.T) {
	rows, err := MultirateExperiment(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	hetero, base := rows[0], rows[1]
	if hetero.GainPct < 20 {
		t.Errorf("hetero gain %.2f%%, want > 20%%", hetero.GainPct)
	}
	if hetero.FastDelivery <= hetero.SlowDelivery {
		t.Errorf("delivery did not split: %g vs %g", hetero.FastDelivery, hetero.SlowDelivery)
	}
	// On the homogeneous base workload multirate must not lose.
	if base.GainPct < -2 {
		t.Errorf("base workload gain %.2f%%, want >= -2%%", base.GainPct)
	}
}

func TestGammaControllerAblation(t *testing.T) {
	rows, err := GammaControllerAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := make(map[string]GammaRow, len(rows))
	for _, r := range rows {
		byName[r.Controller] = r
	}
	refined, literal := byName["refined"], byName["literal"]

	// Both adaptive controllers converge on every shape.
	for si := 0; si < 4; si++ {
		if refined.ConvergeIters[si] < 0 {
			t.Errorf("refined did not converge on shape %d", si)
		}
		if literal.ConvergeIters[si] < 0 {
			t.Errorf("literal did not converge on shape %d", si)
		}
	}
	// The refined controller's reason to exist: faster recovery.
	if refined.RecoveryIters < 0 {
		t.Fatal("refined did not recover")
	}
	if literal.RecoveryIters > 0 && refined.RecoveryIters >= literal.RecoveryIters {
		t.Errorf("refined recovery %d not below literal %d", refined.RecoveryIters, literal.RecoveryIters)
	}
	var buf bytes.Buffer
	RenderGammaAblation(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestOverheadExperiment(t *testing.T) {
	rows, err := OverheadExperiment(quick(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.MessagesPerRound < float64(r.Flows+r.Nodes) {
			t.Errorf("%s: %.1f msgs/round below the structural floor %d",
				r.Workload, r.MessagesPerRound, r.Flows+r.Nodes)
		}
		if r.BytesPerRound <= 0 {
			t.Errorf("%s: no bytes counted", r.Workload)
		}
		if r.Utility <= 0 {
			t.Errorf("%s: utility = %g", r.Workload, r.Utility)
		}
	}
	// Message volume grows with system size.
	if rows[2].MessagesPerRound <= rows[0].MessagesPerRound {
		t.Errorf("24f/12n msgs/round %.1f not above base %.1f",
			rows[2].MessagesPerRound, rows[0].MessagesPerRound)
	}

	var buf bytes.Buffer
	RenderOverhead(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestDistRuntimeExperiment(t *testing.T) {
	rows, err := DistRuntimeExperiment(quick(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byConfig := make(map[string]RuntimeRow, len(rows))
	for _, r := range rows {
		if r.BytesPerRound <= 0 || r.FramesPerRound <= 0 {
			t.Errorf("%s: empty meters (%.1f frames, %.0f bytes)", r.Config, r.FramesPerRound, r.BytesPerRound)
		}
		if r.Utility <= 0 {
			t.Errorf("%s: utility = %g", r.Config, r.Utility)
		}
		byConfig[r.Config] = r
	}
	// The headline claim of batching, measured not asserted by
	// construction: >= 5x fewer frames/round.
	if b, bb := byConfig["plain"], byConfig["batch"]; b.FramesPerRound < 5*bb.FramesPerRound {
		t.Errorf("batching saves only %.2fx frames/round (plain %.1f, batched %.1f)",
			b.FramesPerRound/bb.FramesPerRound, b.FramesPerRound, bb.FramesPerRound)
	}
	for _, label := range []string{"plain", "batch"} {
		if byConfig[label].RoundsToConverge == 0 {
			t.Errorf("%s: never reached the 1%% band", label)
		}
	}

	var buf bytes.Buffer
	RenderDistRuntime(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}
