package dist

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workload"
)

// BenchmarkSyncRoundMemory measures one synchronous LRGP round over the
// in-memory transport on the base workload (9 agents + collector).
func BenchmarkSyncRoundMemory(b *testing.B) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Run(1, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncRoundTCP measures the same round over loopback TCP.
func BenchmarkSyncRoundTCP(b *testing.B) {
	net := transport.NewTCP()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Run(1, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRounds runs b.N synchronous rounds under cfg on the given problem
// and reports frames/round and bytes/round from the transport meter, the
// two costs gateway batching attacks (recorded to
// BENCH_dist.json by `make bench-dist`).
func benchRounds(b *testing.B, cfg Config, flowCopies, nodeSetCopies int) {
	p := workload.Scaled(workload.Config{FlowCopies: flowCopies, NodeSetCopies: nodeSetCopies})
	net := transport.NewMemory()
	defer net.Close()
	cfg.Core = core.Config{Adaptive: true}
	cl, err := New(p, cfg, net)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	if _, err := cl.Run(b.N, 5*time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	m := net.NetStats()
	b.ReportMetric(float64(m.Delivered)/float64(b.N), "frames/round")
	b.ReportMetric(float64(m.Bytes)/float64(b.N), "bytes/round")
}

// BenchmarkDistWire measures the wire cost of the base workload.
func BenchmarkDistWire(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchRounds(b, Config{}, 1, 1) })
}

// BenchmarkDistBatch compares plain per-message delivery against per-host
// gateway batching on the 102-flow x 102-node cluster (12 hosts).
func BenchmarkDistBatch(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		benchRounds(b, Config{}, 17, 2)
	})
	b.Run("batched", func(b *testing.B) {
		benchRounds(b, Config{Batch: true, Hosts: 12}, 17, 2)
	})
}

// BenchmarkDistRecorder measures flight-recorder overhead on the round
// hot path: the identical bounded-staleness cluster with rings detached
// and attached. The delta is the cost of the per-event atomic stores
// (acceptance: under 5%).
func BenchmarkDistRecorder(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			p := workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})
			net := transport.NewMemory()
			defer net.Close()
			cl, err := New(p, Config{
				Core:      core.Config{Adaptive: true},
				Staleness: 1,
				Record:    on,
			}, net)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ResetTimer()
			if _, err := cl.Run(b.N, 5*time.Minute); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDistStaleness measures rounds-to-converge (first finalized
// round within 1% of the engine's converged utility) per staleness bound
// K, alongside the usual ns/op. K=0 is the barrier schedule.
func BenchmarkDistStaleness(b *testing.B) {
	p := workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	want := ref.Solve(300).Utility

	for _, k := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			const rounds = 120
			converged := 0
			for i := 0; i < b.N; i++ {
				net := transport.NewMemory()
				cl, err := New(p, Config{
					Core:  core.Config{Adaptive: true},
					Batch: true, Hosts: 12, Staleness: k,
				}, net)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := cl.Run(rounds, 5*time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				cl.Close()
				net.Close()
				converged = 0
				for _, s := range stats {
					if rel := (s.Utility - want) / want; rel > -0.01 && rel < 0.01 {
						converged = s.Round
						break
					}
				}
			}
			b.ReportMetric(float64(converged), "rounds-to-converge")
		})
	}
}
