package dist

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// syncWriter serializes writes so a stall-detector dump (watcher
// goroutine) cannot race the test's read.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestWriteEventsRoundTrip runs a recorded cluster and checks the merged
// event log reconstructs the run: every agent present, the round timeline
// reaching the requested round, sane staleness distribution.
func TestWriteEventsRoundTrip(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	reg := telemetry.NewRegistry()
	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		Telemetry: telemetry.NewDistMetrics(reg),
		Record:    true,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const rounds = 30
	stats, err := cl.Run(rounds, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}

	var buf bytes.Buffer
	if err := cl.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(recs)
	if a.MaxRound < rounds {
		t.Errorf("event log reaches round %d, want >= %d", a.MaxRound, rounds)
	}
	if want := len(p.Flows) + len(p.Nodes); len(a.Agents) != want {
		t.Errorf("%d agents in log, want %d", len(a.Agents), want)
	}
	if a.Stalls != 0 {
		t.Errorf("%d stalls recorded in a healthy run", a.Stalls)
	}
	total := 0
	for lag, n := range a.StalenessDist {
		if lag < 0 || lag > 2 {
			t.Errorf("observed input lag %d outside [0, K+1]", lag)
		}
		total += n
	}
	if total == 0 {
		t.Error("empty staleness distribution")
	}
	if got := int(cl.cfg.Telemetry.RoundsFinalized.Value()); got < rounds {
		t.Errorf("telemetry finalized %d rounds, want >= %d", got, rounds)
	}
}

// TestWriteEventsRequiresRecord: without Config.Record the dump must fail
// loudly instead of returning an empty log.
func TestWriteEventsRequiresRecord(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteEvents(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteEvents succeeded with recording disabled")
	}
}

// TestStallPostmortemOnLostStop recreates the fault-dropped-Stop hang: the
// control plane is partitioned away before Close, every Stop frame is
// lost, the agents never exit, and Close times out. The cluster must
// notice and dump a post-mortem naming the stall instead of leaving a
// silent hung-test mystery.
func TestStallPostmortemOnLostStop(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	reg := telemetry.NewRegistry()
	tel := telemetry.NewDistMetrics(reg)
	pm := &syncWriter{}
	cl, err := New(p, Config{
		Core:       core.Config{Adaptive: true},
		Staleness:  1,
		Telemetry:  tel,
		Postmortem: pm,
		StopGrace:  200 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Cut the control endpoint off: Stop frames now vanish exactly like
	// fault-injected drops (ErrDropped is tolerated by Close's error
	// filter), so no agent ever sees its Stop.
	net.SetPartition("cluster-ctrl", 9)
	err = cl.Close()
	if err == nil || !strings.Contains(err.Error(), "timeout stopping") {
		t.Fatalf("Close error = %v, want stop timeout", err)
	}
	net.ClearPartitions()

	recs, perr := ReadEventLog(bytes.NewReader(pm.bytes()))
	if perr != nil {
		t.Fatal(perr)
	}
	if len(recs) == 0 {
		t.Fatal("post-mortem dump is empty")
	}
	a := Analyze(recs)
	if a.Stalls != 1 {
		t.Errorf("post-mortem records %d stalls, want 1", a.Stalls)
	}
	if a.MaxRound < 10 {
		t.Errorf("post-mortem reaches round %d, want >= 10", a.MaxRound)
	}
	if tel.Stalls.Value() != 1 {
		t.Errorf("stall counter = %d, want 1", tel.Stalls.Value())
	}
}

// TestStallDetectorTripsMidRun arms the detector, then makes the
// transport drop every frame mid-run: the collector freezes with rounds
// pending, the watcher trips before the Run timeout, and the post-mortem
// shows the agents chirping into the void.
func TestStallDetectorTripsMidRun(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	net.SetDropExempt("cluster-ctrl")
	reg := telemetry.NewRegistry()
	tel := telemetry.NewDistMetrics(reg)
	pm := &syncWriter{}
	cl, err := New(p, Config{
		Core:         core.Config{Adaptive: true},
		Staleness:    1,
		Resend:       2 * time.Millisecond,
		Telemetry:    tel,
		Postmortem:   pm,
		StallTimeout: 100 * time.Millisecond,
		StopGrace:    200 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}

	net.SetDropRate(1.0, 3) // every agent frame now vanishes
	_, runErr := cl.Run(10, 2*time.Second)
	if runErr == nil {
		t.Fatal("Run succeeded with a fully lossy transport")
	}
	if tel.Stalls.Value() != 1 {
		t.Errorf("stall counter = %d, want 1", tel.Stalls.Value())
	}
	recs, perr := ReadEventLog(bytes.NewReader(pm.bytes()))
	if perr != nil {
		t.Fatal(perr)
	}
	a := Analyze(recs)
	if a.Stalls != 1 {
		t.Errorf("post-mortem records %d stalls, want 1", a.Stalls)
	}
	if a.TotalResends == 0 {
		t.Error("no chirps in the post-mortem of a lossy stall")
	}

	net.SetDropRate(0, 0)
	cl.Close()
}

// roundTrigger wraps a network so a test can inject a fault at a round
// boundary instead of after a wall-clock sleep, which a loaded host can
// land before the run starts or after the target agent has finished:
// fire runs once, when agent `from` first sends a rate for round `round`
// or later, before that frame is delivered.
type roundTrigger struct {
	transport.Network
	from  string
	round int
	once  sync.Once
	fire  func()
}

func (n *roundTrigger) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(name)
	if err != nil || name != n.from {
		return ep, err
	}
	return &triggerEndpoint{Endpoint: ep, n: n}, nil
}

type triggerEndpoint struct {
	transport.Endpoint
	n *roundTrigger
}

func (e *triggerEndpoint) Send(msg transport.Message) error {
	if msg.Kind == rateKind {
		if rm, err := decodeRate(msg); err == nil && rm.Round >= e.n.round {
			e.n.once.Do(e.n.fire)
		}
	}
	return e.Endpoint.Send(msg)
}

// TestTraceAnalyzeThousandAgents is the end-to-end acceptance run: 1008
// agents under 10% loss, one flow agent partitioned off mid-run (from
// its round-10 announce, for 400ms) and healed. The merged
// flight-recorder log must rank exactly that agent as the top straggler
// and attribute repair traffic to the stall window.
func TestTraceAnalyzeThousandAgents(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 112})
	if agents := len(p.Flows) + len(p.Nodes); agents < 1000 {
		t.Fatalf("workload too small: %d agents", agents)
	}
	const straggler = 5

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 1)
	net.SetDropExempt("cluster-ctrl")
	injected := make(chan struct{})
	trig := &roundTrigger{Network: net, from: flowName(straggler), round: 10, fire: func() {
		net.SetPartition(flowName(straggler), 9)
		close(injected)
		time.AfterFunc(400*time.Millisecond, net.ClearPartitions)
	}}

	cl, err := New(p, Config{
		Core:       core.Config{Adaptive: true},
		Staleness:  2,
		Resend:     5 * time.Millisecond,
		Record:     true,
		RecordSize: 1024,
	}, trig)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(60, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}
	select {
	case <-injected:
	default:
		t.Fatal("run finished without the partition being injected")
	}

	var buf bytes.Buffer
	if err := cl.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(recs)
	if a.MaxRound < 60 {
		t.Errorf("event log reaches round %d, want >= 60", a.MaxRound)
	}
	if len(a.Agents) < 1000 {
		t.Errorf("%d agents in log, want >= 1000", len(a.Agents))
	}
	// Ranking identity needs real-time cadence: under the race detector
	// the cluster runs ~50x slower, so scheduler starvation legitimately
	// puts arbitrary agents further behind than the 400ms partition puts
	// flow/5. The race build keeps the run for 1008-agent recorder
	// coverage and skips only the identity assertions.
	if !raceEnabled {
		top := a.Agents[0]
		if top.Agent != flowName(straggler) {
			t.Errorf("top straggler = %s (blame %dns, behind %dns, maxlag %d), want %s",
				top.Agent, top.BlameNanos, top.BehindNanos, top.MaxLag, flowName(straggler))
		}
		if top.BlameNanos == 0 {
			t.Error("straggler BlameNanos = 0")
		}
		if top.BehindNanos == 0 {
			t.Error("straggler BehindNanos = 0")
		}
		if top.MaxLag < 2 {
			t.Errorf("straggler MaxLag = %d, want >= 2", top.MaxLag)
		}
	}
	if a.TotalResends == 0 {
		t.Error("no resend chirps recorded under loss + partition")
	}
	lossRounds := 0
	for _, rs := range a.Rounds {
		if rs.Resends > 0 {
			lossRounds++
		}
	}
	if lossRounds == 0 {
		t.Error("no per-round loss (resend) attribution")
	}
}
