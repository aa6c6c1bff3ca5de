package dist

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runTrajectory spins up a cluster, runs it for the given rounds, closes
// it, and returns the per-round stats.
func runTrajectory(t *testing.T, cfg Config, net transport.Network, rounds int) []RoundStats {
	t.Helper()
	cl, err := New(workload.Base(), cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Run(rounds, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	return stats
}

// requireIdentical asserts two trajectories are bit-identical: same rounds,
// exactly equal utilities.
func requireIdentical(t *testing.T, tag string, got, want []RoundStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].Round != want[i].Round || got[i].Utility != want[i].Utility {
			t.Fatalf("%s: round %d: %v vs %v", tag, i+1, got[i], want[i])
		}
	}
}

// goldenTrajectories reads testdata/barrier_trajectories.txt: per case,
// the utility bits of every round the deleted barrier loop produced on the
// JSON wire (see the file header for the recorded scenarios).
func goldenTrajectories(t *testing.T) map[string][]RoundStats {
	t.Helper()
	data, err := os.ReadFile("testdata/barrier_trajectories.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]RoundStats)
	var name string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if c, ok := strings.CutPrefix(line, "case "); ok {
			name = c
			continue
		}
		var round int
		var bits uint64
		if _, err := fmt.Sscanf(line, "%d %x", &round, &bits); err != nil || name == "" {
			t.Fatalf("golden line %q: %v", line, err)
		}
		out[name] = append(out[name], RoundStats{Round: round, Utility: math.Float64frombits(bits)})
	}
	return out
}

// runGolden replays one golden case's scenario on a fresh cluster over
// net, in the same 4-round Run chunks the recording used.
func runGolden(t *testing.T, name string, net transport.Network) []RoundStats {
	t.Helper()
	p := workload.Base()
	cfg := Config{Core: core.Config{Adaptive: name != "base-fixed"}}
	leaveAt, rounds := 0, 60
	if name == "scaled-leave" {
		p = workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})
		leaveAt, rounds = 100, 140
	}
	cl, err := New(p, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got []RoundStats
	for done := 0; done < rounds; done += 4 {
		if done == leaveAt && leaveAt > 0 {
			for _, f := range []model.FlowID{1, 2, 5} {
				if err := cl.RemoveFlow(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		stats, err := cl.Run(4, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, stats...)
	}
	return got
}

// TestStalenessZeroBitIdentical is the golden test for the round loop:
// at K=0 its schedule must be the barrier schedule exactly, reproducing
// the trajectories the deleted barrier loop recorded bit for bit (with
// adaptive gamma on and off, and across a departure of three flows).
func TestStalenessZeroBitIdentical(t *testing.T) {
	golden := goldenTrajectories(t)
	for _, name := range []string{"base-fixed", "base-adaptive", "scaled-leave"} {
		net := transport.NewMemory()
		got := runGolden(t, name, net)
		net.Close()
		requireIdentical(t, name, got, golden[name])
	}
}

// TestBinaryWireBitIdentical: the binary codec changes bytes on the wire,
// not the computation. Over TCP the trajectory is exactly the one the
// barrier loop recorded on the JSON wire.
func TestBinaryWireBitIdentical(t *testing.T) {
	net := transport.NewTCP()
	defer net.Close()
	requireIdentical(t, "tcp vs golden", runGolden(t, "base-adaptive", net), goldenTrajectories(t)["base-adaptive"])
}

// TestBinaryWireOverTCP runs the binary codec through the real TCP framing
// end to end and checks engine parity.
func TestBinaryWireOverTCP(t *testing.T) {
	p := workload.Base()
	e, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var engineTrace []float64
	for i := 0; i < rounds; i++ {
		engineTrace = append(engineTrace, e.Step().Utility)
	}

	net := transport.NewTCP()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.Run(rounds, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
			t.Fatalf("round %d: dist-tcp-binary %g vs engine %g", i+1, s.Utility, engineTrace[i])
		}
	}
}

// TestBatchedBitIdentical: gateway batching changes framing, not values —
// the batched trajectory must exactly equal the unbatched one.
func TestBatchedBitIdentical(t *testing.T) {
	cfg := Config{Core: core.Config{Adaptive: true}}
	netPlain := transport.NewMemory()
	ref := runTrajectory(t, cfg, netPlain, 40)
	netPlain.Close()

	cfg.Batch = true
	cfg.Hosts = 4
	netBatch := transport.NewMemory()
	got := runTrajectory(t, cfg, netBatch, 40)
	netBatch.Close()
	requireIdentical(t, "batched vs plain", got, ref)
}

// tailMeanDeviation returns the relative deviation of the mean utility of
// the last (up to) n finalized rounds from want. Individual converged
// rounds flicker between near-equivalent discrete optima (see
// TestAsyncConverges), so the converged level is judged on a tail mean.
func tailMeanDeviation(stats []RoundStats, want float64, n int) float64 {
	if len(stats) > n {
		stats = stats[len(stats)-n:]
	}
	mean := 0.0
	for _, s := range stats {
		mean += s.Utility
	}
	mean /= float64(len(stats))
	return math.Abs(mean-want) / want
}

// TestStalenessConvergesUnderLoss: with 10% message loss and delivery
// delay, the cluster must still converge to the synchronous optimum within
// 1% — the Section 3.5 claim, now on the round-structured (rather than
// free-running) runtime. K=0 (the barrier schedule) survives the loss
// through resend chirps alone.
func TestStalenessConvergesUnderLoss(t *testing.T) {
	p := workload.Base()
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(400).Utility

	for _, k := range []int{0, 1} {
		net := transport.NewMemory()
		net.SetDropRate(0.10, 7)
		net.SetDropExempt("cluster-ctrl")
		net.SetDelay(200 * time.Microsecond)

		cl, err := New(p, Config{
			Core:      core.Config{Adaptive: true},
			Staleness: k,
			Resend:    2 * time.Millisecond,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cl.Run(300, 2*time.Minute)
		cl.Close()
		net.Close()
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(stats) == 0 {
			t.Fatalf("K=%d: no rounds completed", k)
		}
		if rel := tailMeanDeviation(stats, want, 8); rel > 0.01 {
			t.Errorf("K=%d: converged utility deviates %.2f%% from synchronous %.2f (%d rounds finalized)",
				k, rel*100, want, len(stats))
		}
		if net.NetStats().Dropped == 0 {
			t.Errorf("K=%d: fault injection inactive: nothing was dropped", k)
		}
	}
}

// TestClusterThousandAgents proves the full data plane at scale: 1008
// agents (672 flows + 336 nodes) on batched gateways with the binary codec
// and bounded staleness, under 10% message loss. The converged utility must
// land within 1% of the in-process engine. Sized to stay in -short (it is
// part of the race CI job).
func TestClusterThousandAgents(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 112})
	if agents := len(p.Flows) + len(p.Nodes); agents < 1000 {
		t.Fatalf("workload too small: %d agents", agents)
	}
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(300).Utility

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 1)
	net.SetDropExempt("cluster-ctrl")

	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Batch:     true,
		Hosts:     24,
		Staleness: 2,
		Resend:    5 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(120, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}
	if rel := tailMeanDeviation(stats, want, 5); rel > 0.01 {
		t.Errorf("converged utility deviates %.2f%% from engine %.2f (%d rounds finalized)",
			rel*100, want, len(stats))
	}
	if net.NetStats().Dropped == 0 {
		t.Error("fault injection inactive: nothing was dropped")
	}
}

// TestBatchFrameReduction: on a 102-flow/102-node cluster, gateway
// batching must cut network frames per round by at least 5x.
func TestBatchFrameReduction(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})
	if len(p.Flows) != 102 || len(p.Nodes) != 102 {
		t.Fatalf("unexpected workload shape: %d flows, %d nodes", len(p.Flows), len(p.Nodes))
	}
	const rounds = 10
	run := func(cfg Config) uint64 {
		net := transport.NewMemory()
		defer net.Close()
		cl, err := New(p, cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(rounds, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		return net.NetStats().Delivered
	}

	plain := run(Config{Core: core.Config{Adaptive: true}})
	batched := run(Config{Core: core.Config{Adaptive: true}, Batch: true, Hosts: 12})
	if batched == 0 || plain == 0 {
		t.Fatalf("frame meters did not advance: plain=%d batched=%d", plain, batched)
	}
	if ratio := float64(plain) / float64(batched); ratio < 5 {
		t.Errorf("batching saves %.2fx frames (plain %d, batched %d), want >= 5x", ratio, plain, batched)
	}
}

// TestCloseSurfacesSendFailure: a failed control send during Close must
// surface in the returned error, not be silently discarded (the historical
// bug dropped every Encode/Send error on the floor).
func TestCloseSurfacesSendFailure(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(5, time.Minute); err != nil {
		t.Fatal(err)
	}
	net.Close() // control sends now fail with ErrClosed
	if err := cl.Close(); err == nil {
		t.Error("Close returned nil after the transport failed its control sends")
	}
}
