package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// OverheadRow records the communication cost of distributed LRGP on one
// workload (X5). The paper notes an iteration's wall-clock cost is about
// one overlay round-trip; this experiment quantifies the message and byte
// volume that buys.
type OverheadRow struct {
	Workload string
	Flows    int
	Nodes    int
	Rounds   int
	// MessagesPerRound and BytesPerRound average over the run (rate
	// announcements + node reports + collector copies).
	MessagesPerRound float64
	BytesPerRound    float64
	// Utility sanity-checks that the run actually optimized.
	Utility float64
}

// OverheadExperiment (X5) runs the synchronous distributed cluster over a
// metered in-memory transport for each Table 2 workload and reports the
// per-round message volume, which grows with flows x nodes while the
// iteration count stays flat (Table 2's finding).
func OverheadExperiment(opts Options, rounds int) ([]OverheadRow, error) {
	o := opts.normalized()
	if rounds <= 0 {
		rounds = o.Iterations / 5
		if rounds < 10 {
			rounds = 10
		}
	}

	var out []OverheadRow
	for _, p := range workload.Table2Workloads() {
		net := transport.NewMemory()
		cl, err := dist.New(p, dist.Config{Core: core.Config{Adaptive: true}}, net)
		if err != nil {
			net.Close()
			return nil, err
		}
		stats, err := cl.Run(rounds, 2*time.Minute)
		if err != nil {
			cl.Close()
			net.Close()
			return nil, err
		}
		m := net.NetStats()
		if err := cl.Close(); err != nil {
			net.Close()
			return nil, err
		}
		net.Close()

		out = append(out, OverheadRow{
			Workload:         p.Name,
			Flows:            len(p.Flows),
			Nodes:            len(p.Nodes),
			Rounds:           rounds,
			MessagesPerRound: float64(m.Delivered) / float64(rounds),
			BytesPerRound:    float64(m.Bytes) / float64(rounds),
			Utility:          stats[len(stats)-1].Utility,
		})
	}
	return out, nil
}

// RuntimeRow records one dist-runtime configuration of the X5 extension:
// the same workload optimized under a batching / staleness combination,
// with its communication cost and convergence speed.
type RuntimeRow struct {
	Config string // human label, e.g. "batch K=2"
	// Batch and Staleness echo the dist.Config knobs.
	Batch     bool
	Staleness int
	// FramesPerRound counts transport frames (after batching), while
	// BytesPerRound counts payload bytes on the wire.
	FramesPerRound float64
	BytesPerRound  float64
	// RoundsToConverge is the first finalized round whose utility is
	// within 1% of the synchronous engine's converged utility (0 when the
	// run never entered the band).
	RoundsToConverge int
	Utility          float64
}

// DistRuntimeExperiment (X5 extension) fixes one mid-size workload (102
// flows x 102 nodes) and sweeps the distributed runtime's throughput
// knobs: per-host batching and bounded staleness K. It reports
// frames/round and bytes/round (the costs batching attacks) and
// rounds-to-converge (the cost staleness pays, or does not, for
// overlapping rounds).
func DistRuntimeExperiment(opts Options, rounds int) ([]RuntimeRow, error) {
	o := opts.normalized()
	if rounds <= 0 {
		rounds = o.Iterations / 2
		if rounds < 60 {
			rounds = 60
		}
	}
	p := workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})

	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		return nil, err
	}
	want := ref.Solve(2 * rounds).Utility

	configs := []struct {
		label string
		cfg   dist.Config
	}{
		{"plain", dist.Config{}},
		{"batch", dist.Config{Batch: true, Hosts: 12}},
		{"batch K=1", dist.Config{Batch: true, Hosts: 12, Staleness: 1}},
		{"batch K=2", dist.Config{Batch: true, Hosts: 12, Staleness: 2}},
		{"batch K=4", dist.Config{Batch: true, Hosts: 12, Staleness: 4}},
	}

	var out []RuntimeRow
	for _, c := range configs {
		cfg := c.cfg
		cfg.Core = core.Config{Adaptive: true}
		net := transport.NewMemory()
		cl, err := dist.New(p, cfg, net)
		if err != nil {
			net.Close()
			return nil, err
		}
		stats, err := cl.Run(rounds, 2*time.Minute)
		if err != nil {
			cl.Close()
			net.Close()
			return nil, err
		}
		m := net.NetStats()
		if err := cl.Close(); err != nil {
			net.Close()
			return nil, err
		}
		net.Close()

		converged := 0
		for _, s := range stats {
			if rel := (s.Utility - want) / want; rel > -0.01 && rel < 0.01 {
				converged = s.Round
				break
			}
		}
		out = append(out, RuntimeRow{
			Config:           c.label,
			Batch:            cfg.Batch,
			Staleness:        cfg.Staleness,
			FramesPerRound:   float64(m.Delivered) / float64(rounds),
			BytesPerRound:    float64(m.Bytes) / float64(rounds),
			RoundsToConverge: converged,
			Utility:          stats[len(stats)-1].Utility,
		})
	}
	return out, nil
}

// RenderDistRuntime renders the X5 extension rows.
func RenderDistRuntime(rows []RuntimeRow) *trace.Table {
	t := trace.NewTable("X5b: dist runtime — batching, staleness (102f x 102n)",
		"Config", "Frames/round", "Bytes/round", "Rounds to 1%", "Utility")
	for _, r := range rows {
		conv := "-"
		if r.RoundsToConverge > 0 {
			conv = fmt.Sprint(r.RoundsToConverge)
		}
		t.Add(r.Config,
			fmt.Sprintf("%.1f", r.FramesPerRound),
			fmt.Sprintf("%.0f", r.BytesPerRound),
			conv,
			fmt.Sprintf("%.0f", r.Utility))
	}
	return t
}

// RenderOverhead renders X5 rows.
func RenderOverhead(rows []OverheadRow) *trace.Table {
	t := trace.NewTable("X5: communication overhead of distributed LRGP",
		"Workload", "Flows", "Nodes", "Msgs/round", "Bytes/round", "Utility")
	for _, r := range rows {
		t.Add(r.Workload,
			fmt.Sprint(r.Flows), fmt.Sprint(r.Nodes),
			fmt.Sprintf("%.1f", r.MessagesPerRound),
			fmt.Sprintf("%.0f", r.BytesPerRound),
			fmt.Sprintf("%.0f", r.Utility))
	}
	return t
}
