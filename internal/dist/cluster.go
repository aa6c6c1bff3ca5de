package dist

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Mode selects the execution style.
type Mode int

// Execution modes.
const (
	// Sync runs lock-step rounds (the paper's main formulation).
	Sync Mode = iota + 1
	// Async runs free-running agents on tickers with price averaging
	// (Section 3.5).
	Async
)

// Default async parameters.
const (
	DefaultTick        = 2 * time.Millisecond
	DefaultPriceWindow = 3
	// DefaultResend is the Sync-mode stall re-announce interval: an agent
	// blocked this long re-sends its freshest value so a dropped frame
	// cannot deadlock the cluster.
	DefaultResend = 10 * time.Millisecond
)

// Config tunes a Cluster.
type Config struct {
	// Core carries the LRGP algorithm parameters.
	Core core.Config
	// Mode selects Sync (default) or Async execution.
	Mode Mode
	// Tick is the agent recompute interval in Async mode (default
	// DefaultTick).
	Tick time.Duration
	// PriceWindow is how many recent prices a flow source averages per
	// resource (default DefaultPriceWindow). Sync runs at Staleness 0
	// always use the latest price only; Async and bounded-staleness runs
	// average per Section 3.5.
	PriceWindow int
	// Multirate runs the multirate extension's algorithms at the agents
	// (per-class delivery rates); see internal/multirate.
	Multirate bool

	// Batch co-locates agents onto gateway hosts: intra-host messages
	// skip the wire entirely and cross-host traffic is batched into one
	// frame per host pair per flush epoch (see gateway.go). In Async mode
	// later writes within an epoch coalesce over unsent earlier ones.
	Batch bool
	// Hosts is the number of gateway hosts when batching (default: one
	// per node). Nodes map to hosts in contiguous blocks; each flow agent
	// is co-located with its source node.
	Hosts int
	// FlushInterval is the gateway batch epoch (default
	// DefaultFlushInterval).
	FlushInterval time.Duration

	// Staleness bounds how many rounds behind an agent's inputs may be in
	// Sync mode (Section 3.5 averaging tolerates the skew). 0 keeps the
	// exact barrier schedule; K > 0 lets agents proceed on values up to K
	// rounds stale, which overlaps rounds.
	Staleness int
	// Resend is the Sync-mode stall re-announce interval (default
	// DefaultResend). Resends always run, so a lost frame delays a round
	// instead of stalling the cluster.
	Resend time.Duration

	// Telemetry, when non-nil, streams runtime metrics (round progress,
	// staleness, chirp repairs, gateway occupancy, stalls) into the
	// lrgp_dist_* families. All observations are atomic-only; a nil handle
	// costs a nil check per event.
	Telemetry *telemetry.DistMetrics
	// Record attaches a flight recorder to every agent: a fixed-size
	// lock-free ring of the last RecordSize events, dumpable via
	// WriteEvents or a stall post-mortem. Implied by Postmortem or
	// StallTimeout.
	Record bool
	// RecordSize is the per-agent ring capacity in events (default
	// DefaultRecordSize, rounded up to a power of two).
	RecordSize int
	// StallTimeout arms the stall detector (Sync mode): if rounds are
	// pending and the collector absorbs nothing for this long, the
	// cluster records a stall and dumps a post-mortem. 0 disables.
	StallTimeout time.Duration
	// Postmortem receives one JSONL dump of every agent's ring the first
	// time the cluster stalls (detector trip, Run timeout, or Close
	// timeout). Implies Record.
	Postmortem io.Writer
	// StopGrace bounds how long Close waits for agents to acknowledge
	// their Stop (default 5s). Under fault injection a Stop frame can be
	// lost, making the grace period the shutdown deadline.
	StopGrace time.Duration
}

func (c Config) normalized() Config {
	c.Core = c.Core.WithDefaults()
	if c.Mode == 0 {
		c.Mode = Sync
	}
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	if c.PriceWindow <= 0 {
		c.PriceWindow = DefaultPriceWindow
	}
	if c.Staleness < 0 {
		c.Staleness = 0
	}
	if c.Mode == Sync && c.Staleness == 0 {
		// Barrier schedule: latest price only.
		c.PriceWindow = 1
	}
	if c.Resend <= 0 {
		c.Resend = DefaultResend
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	if c.Postmortem != nil || c.StallTimeout > 0 {
		c.Record = true
	}
	if c.StopGrace <= 0 {
		c.StopGrace = 5 * time.Second
	}
	return c
}

// RoundStats is the collector's view of one completed synchronous round
// (or one asynchronous sample).
type RoundStats struct {
	// Round is the 1-based round number (sample number in Async mode).
	Round int
	// Utility is the global objective value.
	Utility float64
}

// Cluster wires one agent per flow and per node over a transport network
// and aggregates global state at a collector endpoint.
type Cluster struct {
	p   *model.Problem
	cfg Config

	flows    []*flowAgent
	nodes    []*nodeAgent
	ctrl     transport.Endpoint // for sending control messages
	coll     *collector
	gateways []*gateway
	route    map[string]string // agent name -> host endpoint (batch mode)

	// Observability: the shared monotonic epoch every recorder stamps
	// against (via the coarse shared clock), all rings (for snapshots),
	// and the cluster-level ring (detector events).
	epoch      time.Time
	clk        *recClock
	recs       []*recorder
	clusterRec *recorder
	stallQuit  chan struct{}
	stallDone  chan struct{}

	pmMu     sync.Mutex
	pmDumped bool

	mu      sync.Mutex
	started bool
	closed  bool
	ran     int // highest round requested in sync mode
}

// New validates the problem and attaches all agents to the network. Agents
// do not process rounds until Run (Sync) or Start (Async).
func New(p *model.Problem, cfg Config, net transport.Network) (*Cluster, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c := cfg.normalized()
	ix := model.NewIndex(p)

	cl := &Cluster{p: p, cfg: c, epoch: time.Now()}
	if c.Record {
		cl.clk = newRecClock(cl.epoch)
	}
	ok := false
	defer func() {
		if !ok && cl.clk != nil {
			cl.clk.stop()
		}
	}()
	cl.clusterRec = cl.newRec("cluster")

	collEP, err := net.Endpoint(collectorName)
	if err != nil {
		return nil, fmt.Errorf("dist: collector endpoint: %w", err)
	}
	// Only nodes that see at least one flow (directly or via an owned
	// link) ever compute and report; the collector must not wait for the
	// silent ones.
	reporting := 0
	for b := range p.Nodes {
		n := len(ix.FlowsByNode(model.NodeID(b)))
		for l := range p.Links {
			if p.Links[l].To == model.NodeID(b) {
				n += len(ix.FlowsByLink(model.LinkID(l)))
			}
		}
		if n > 0 {
			reporting++
		}
	}
	cl.coll = newCollector(p, collEP, reporting, c.Telemetry, cl.newRec(collectorName), cl.epoch)

	ctrlEP, err := net.Endpoint("cluster-ctrl")
	if err != nil {
		return nil, fmt.Errorf("dist: control endpoint: %w", err)
	}
	cl.ctrl = ctrlEP

	// endpointFor hands each agent its attachment: a plain network
	// endpoint, or a port on its host's batching gateway.
	endpointFor := func(name string) (transport.Endpoint, error) {
		if !c.Batch {
			return net.Endpoint(name)
		}
		gw := cl.gateways[hostIndex(cl.route[name], len(cl.gateways))]
		return gw.port(name), nil
	}

	if c.Batch {
		if err := cl.buildGateways(p, net, c); err != nil {
			return nil, err
		}
	}

	for i := range p.Flows {
		ep, err := endpointFor(flowName(model.FlowID(i)))
		if err != nil {
			return nil, fmt.Errorf("dist: flow %d endpoint: %w", i, err)
		}
		fa := newFlowAgent(p, ix, model.FlowID(i), ep, c)
		fa.rec = cl.newRec(flowName(model.FlowID(i)))
		fa.tel = c.Telemetry
		cl.flows = append(cl.flows, fa)
	}
	for b := range p.Nodes {
		ep, err := endpointFor(nodeName(model.NodeID(b)))
		if err != nil {
			return nil, fmt.Errorf("dist: node %d endpoint: %w", b, err)
		}
		na := newNodeAgent(p, ix, model.NodeID(b), ep, c)
		na.rec = cl.newRec(nodeName(model.NodeID(b)))
		na.tel = c.Telemetry
		cl.nodes = append(cl.nodes, na)
	}

	// Launch all agents; in Sync mode flow agents idle until a RunUntil
	// control arrives.
	go cl.coll.run()
	for _, fa := range cl.flows {
		if c.Mode == Sync {
			go fa.runStale()
		} else {
			go fa.runAsync()
		}
	}
	for _, na := range cl.nodes {
		if c.Mode == Sync {
			go na.runStale()
		} else {
			go na.runAsync()
		}
	}
	if c.StallTimeout > 0 && c.Mode == Sync {
		cl.stallQuit = make(chan struct{})
		cl.stallDone = make(chan struct{})
		go cl.stallWatch()
	}
	cl.started = true
	ok = true
	return cl, nil
}

// newRec attaches one flight-recorder ring when recording is enabled and
// registers it for snapshots. Returns nil (a no-op recorder) otherwise.
func (cl *Cluster) newRec(name string) *recorder {
	if !cl.cfg.Record {
		return nil
	}
	r := newRecorder(name, cl.cfg.RecordSize, cl.clk)
	cl.recs = append(cl.recs, r)
	return r
}

// snapshot collects every ring's currently readable events.
func (cl *Cluster) snapshot() []Event {
	var buf []Event
	for _, r := range cl.recs {
		buf = r.events(buf)
	}
	return buf
}

// WriteEvents dumps every agent's flight-recorder ring as one merged JSONL
// event log (the lrgp-trace input format). Requires Config.Record. Safe to
// call while the cluster is running; in-flight writes are skipped, not
// torn.
func (cl *Cluster) WriteEvents(w io.Writer) error {
	if !cl.cfg.Record {
		return errors.New("dist: flight recording disabled (set Config.Record)")
	}
	return writeEvents(w, cl.snapshot())
}

// stallWatch polls the collector's progress counter and trips when rounds
// are pending but nothing has been absorbed for StallTimeout: the
// signature of the cluster deadlocking (lost Stop/announce frames, a hung
// agent) rather than merely running slowly.
func (cl *Cluster) stallWatch() {
	defer close(cl.stallDone)
	interval := cl.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := cl.coll.progress.Load()
	frozen := time.Duration(0)
	for {
		select {
		case <-cl.stallQuit:
			return
		case <-ticker.C:
			p := cl.coll.progress.Load()
			if p != last {
				last = p
				frozen = 0
				continue
			}
			cl.mu.Lock()
			pending := int(cl.coll.lastFinal.Load()) < cl.ran
			cl.mu.Unlock()
			if !pending {
				frozen = 0
				continue
			}
			frozen += interval
			if frozen >= cl.cfg.StallTimeout {
				cl.postmortem()
				return
			}
		}
	}
}

// postmortem records a stall and, once per cluster, dumps every ring to
// the configured Postmortem writer. Reached from the stall detector, a Run
// timeout, and a Close timeout — whichever notices first wins.
func (cl *Cluster) postmortem() {
	cl.pmMu.Lock()
	defer cl.pmMu.Unlock()
	if cl.pmDumped {
		return
	}
	cl.pmDumped = true
	cl.cfg.Telemetry.ObserveStall()
	cl.clusterRec.record(EvStall, int(cl.coll.lastFinal.Load()), 0, 0)
	if cl.cfg.Postmortem != nil {
		_ = writeEvents(cl.cfg.Postmortem, cl.snapshot())
	}
}

// buildGateways creates the host endpoints and the agent->host routing
// table. Nodes map to hosts in contiguous blocks; flow agents co-locate
// with their source node, so source-local exchanges never touch the wire.
func (cl *Cluster) buildGateways(p *model.Problem, net transport.Network, c Config) error {
	hosts := c.Hosts
	if hosts <= 0 || hosts > len(p.Nodes) {
		hosts = len(p.Nodes)
	}
	cl.route = make(map[string]string, len(p.Flows)+len(p.Nodes)+1)
	for b := range p.Nodes {
		cl.route[nodeName(model.NodeID(b))] = hostName(b * hosts / len(p.Nodes))
	}
	for i := range p.Flows {
		cl.route[flowName(model.FlowID(i))] = cl.route[nodeName(p.Flows[i].Source)]
	}
	cl.route[collectorName] = collectorName
	for k := 0; k < hosts; k++ {
		ep, err := net.Endpoint(hostName(k))
		if err != nil {
			return fmt.Errorf("dist: host %d endpoint: %w", k, err)
		}
		cl.gateways = append(cl.gateways, newGateway(ep, cl.route, c.Mode == Async, c.FlushInterval, c.Telemetry, cl.newRec(hostName(k))))
	}
	return nil
}

// hostIndex parses the numeric suffix of a host endpoint name ("host/7").
func hostIndex(host string, n int) int {
	k := 0
	for i := len("host/"); i < len(host); i++ {
		k = k*10 + int(host[i]-'0')
	}
	if k < 0 || k >= n {
		return 0
	}
	return k
}

// ErrMode is returned when an operation does not apply to the cluster's
// execution mode.
var ErrMode = errors.New("dist: operation not valid in this mode")

// sendCtrl encodes and delivers one control message to an agent (directly,
// or wrapped in a single-message batch frame to the agent's host gateway
// in batch mode). All errors surface to the caller.
func (cl *Cluster) sendCtrl(to string, body ctrlMsg) error {
	msg := transport.Message{From: cl.ctrl.Name(), To: to, Kind: ctrlKind, Payload: body.appendBinary(nil)}
	if host, ok := cl.route[to]; ok && host != to {
		msg = transport.Message{From: cl.ctrl.Name(), To: host, Kind: batchKind, Payload: encodeBatch([]transport.Message{msg})}
	}
	return cl.ctrl.Send(msg)
}

// Run advances a Sync cluster by `rounds` rounds and returns the
// per-round global utilities observed by the collector. Over a lossy
// transport, rounds whose frames were lost are absent from the result.
func (cl *Cluster) Run(rounds int, timeout time.Duration) ([]RoundStats, error) {
	if cl.cfg.Mode != Sync {
		return nil, ErrMode
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	cl.mu.Lock()
	from := cl.ran + 1
	cl.ran += rounds
	until := cl.ran
	cl.mu.Unlock()

	for _, fa := range cl.flows {
		if err := cl.sendCtrl(fa.ep.Name(), ctrlMsg{RunUntil: until}); err != nil {
			return nil, fmt.Errorf("dist: run ctrl: %w", err)
		}
	}
	if err := cl.coll.waitRound(until, timeout); err != nil {
		cl.postmortem()
		return nil, err
	}
	return cl.coll.rounds(from, until), nil
}

// Sample returns the collector's current view of global utility, for Async
// clusters.
func (cl *Cluster) Sample() RoundStats {
	return cl.coll.sample()
}

// RemoveFlow announces a flow's departure (the Figure 3 experiment). In
// Sync mode the departure takes effect at the flow's next scheduled round;
// callers must invoke it between Run calls. A removed flow's agent idles
// and can rejoin via JoinFlow.
func (cl *Cluster) RemoveFlow(i model.FlowID) error {
	return cl.sendCtrl(flowName(i), ctrlMsg{Leave: true})
}

// JoinFlow re-activates a previously removed flow: its agent re-announces
// itself and the node agents resume expecting it. Like RemoveFlow, it
// must be invoked between Run calls in Sync mode (when no rounds are
// pending anywhere).
func (cl *Cluster) JoinFlow(i model.FlowID) error {
	return cl.sendCtrl(flowName(i), ctrlMsg{Join: true})
}

// Allocation returns the collector's latest global allocation view.
func (cl *Cluster) Allocation() model.Allocation {
	return cl.coll.allocation()
}

// Close stops every agent. The underlying network is owned by the caller
// and is not closed. Control-send failures surface in the returned error
// (joined across agents), except fault-injected drops, which the lossy
// modes are designed to tolerate.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()

	if cl.stallQuit != nil {
		close(cl.stallQuit)
		<-cl.stallDone
	}

	var errs []error
	ctrlErr := func(err error) {
		if err != nil && !errors.Is(err, transport.ErrDropped) {
			errs = append(errs, err)
		}
	}
	stop := ctrlMsg{Stop: true}
	for _, fa := range cl.flows {
		ctrlErr(cl.sendCtrl(fa.ep.Name(), stop))
	}
	for _, na := range cl.nodes {
		ctrlErr(cl.sendCtrl(na.ep.Name(), stop))
	}
	ctrlErr(cl.sendCtrl(collectorName, stop))

	// One shared grace period across all agents. A Stop can be lost under
	// fault injection, so an agent may legitimately never stop; once the
	// deadline fires (time.After delivers exactly once) stop waiting on
	// the rest instead of selecting on the drained channel forever.
	deadline := time.After(cl.cfg.StopGrace)
	timedOut := false
	wait := func(done <-chan struct{}, what string) {
		if timedOut {
			return
		}
		select {
		case <-done:
		case <-deadline:
			timedOut = true
			errs = append(errs, fmt.Errorf("dist: timeout stopping %s", what))
		}
	}
	// On a send failure the agents may never see their stop; give them the
	// grace period only when the control plane worked.
	if len(errs) == 0 {
		for _, fa := range cl.flows {
			wait(fa.done, "flow agents")
		}
		for _, na := range cl.nodes {
			wait(na.done, "node agents")
		}
		wait(cl.coll.done, "collector")
	}
	if timedOut {
		// An agent that never saw its Stop is the same failure shape as a
		// mid-run stall: dump the rings while they still show what
		// everyone was (not) doing.
		cl.postmortem()
	}
	for _, gw := range cl.gateways {
		gw.close()
	}
	if cl.clk != nil {
		cl.clk.stop()
	}
	return errors.Join(errs...)
}
