package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/utility"
)

// link-churn replays rolling failures on the X11 overlay: a
// capacity-heterogeneous 10k-node random topology carrying 100 flows of
// 3 classes each. Each event repairs or restores routing, republishes it
// into the engine (TakeDelta → ResetRouting), warm re-solves and enacts
// the result on a broker over the same flows and classes. Demand is
// static and the publish rate low, so the overlay and core.ResetRouting
// carry the load and the broker's enact deltas stay small.
const (
	lcNodes = 10_000
	// lcSolveCap is broker.AutopilotConfig's default ItersPerCycle, the
	// cap the closed loop puts on each re-solve.
	lcSolveCap = 100
	// lcWarmIters brings the engine to its operating point at set-up.
	lcWarmIters = 400
	// lcInterval is the tape's event spacing: above the slowest event
	// (a restore re-traces every flow, then a full-cap re-solve).
	lcInterval    = 300 * time.Millisecond
	lcPublishRate = 1000
	// lcNodeShare is the fraction of tape elements that are relay
	// nodes rather than links.
	lcNodeShare = 0.25
	// feasTol absorbs floating-point noise in CheckFeasible's sums.
	feasTol = 1e-6
)

type lcKind int

const (
	// lcFail takes an element down (Router.Repair*).
	lcFail lcKind = iota
	// lcHeal brings the previous fail's element back (Router.Restore*).
	lcHeal
	// lcFlap fails an element and brings it back before the loop reacts:
	// one repair plus one restore in a single event.
	lcFlap
)

var lcKindNames = [...]string{"fail", "heal", "flap"}

// lcEvent is one tape entry. probe is a flow the element carries, whose
// tree is checked against a from-scratch BuildTree after the event.
type lcEvent struct {
	kind  lcKind
	node  bool
	elem  int
	probe model.FlowID
}

type linkChurn struct {
	opts  options
	tp    *overlay.Topology
	specs []overlay.FlowSpec
	r     *overlay.Router
	eng   *core.Engine
	b     *broker.Broker
	deliv deliveryCounter
	tape  []lcEvent

	em  *telemetry.EngineMetrics
	enm *telemetry.EnactMetrics

	// Per-run layer accounting.
	overlayCalls, affected, rerouted, bfsRuns int
	solves, iters, unconverged                int
	statsBuf                                  []broker.ClassStats
}

// x11Scenario generates the X11 churn experiment's overlay and flow
// population (internal/experiments ChurnConfig defaults) from rng.
func x11Scenario(rng *rand.Rand, nodes int) (*overlay.Topology, []float64, []overlay.FlowSpec) {
	tp := overlay.RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 2000 + rng.Float64()*2000
	}
	flows := make([]overlay.FlowSpec, nodes/100)
	for fi := range flows {
		fs := overlay.FlowSpec{
			Name:     fmt.Sprintf("f%d", fi),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, overlay.ClassSpec{
				Name:            fmt.Sprintf("f%d-c%d", fi, s),
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

func prepareLinkChurn(opts options) (builder, error) {
	nodes := lcNodes
	if opts.tiny {
		nodes = 800
	}
	// The scenario is X11's seed-1 instance on every run; --seed drives
	// only the tape, so runs with different seeds measure the same system.
	scenario := func() (*overlay.Topology, []float64, []overlay.FlowSpec) {
		return x11Scenario(rand.New(rand.NewSource(1)), nodes)
	}
	// The tape is drawn against a router of its own: every instance
	// routes the same scenario the same way.
	tp, caps, specs := scenario()
	r, err := overlay.NewRouter(tp, caps, specs)
	if err != nil {
		return nil, err
	}
	draft := &linkChurn{tp: tp, specs: specs, r: r}
	tape, err := draft.makeTape(rand.New(rand.NewSource(opts.seed)), tapeLength(opts, lcInterval))
	if err != nil {
		return nil, err
	}
	return func(sw *stopwatch) (stack, error) {
		sw.stop()
		tp, caps, specs := scenario()
		sw.start()
		return setupLinkChurn(opts, tp, caps, specs, tape)
	}, nil
}

func setupLinkChurn(opts options, tp *overlay.Topology, caps []float64, specs []overlay.FlowSpec, tape []lcEvent) (stack, error) {
	r, err := overlay.NewRouter(tp, caps, specs)
	if err != nil {
		return nil, err
	}
	s := &linkChurn{opts: opts, tp: tp, specs: specs, r: r, tape: tape}
	if opts.trace {
		reg := telemetry.NewRegistry()
		s.em = telemetry.NewEngineMetrics(reg)
		s.enm = telemetry.NewEnactMetrics(reg)
	}
	s.eng, err = core.NewEngine(r.Problem(), core.Config{Adaptive: true, Telemetry: s.em})
	if err != nil {
		return nil, err
	}
	res := s.eng.Solve(lcWarmIters)

	// The broker gets its own copy: repairs mutate the router's problem
	// in place, and the broker needs only the (unchanging) flows and
	// classes.
	s.b, err = broker.New(r.Problem().Clone(), broker.WithEnactTelemetry(s.enm))
	if err != nil {
		s.close()
		return nil, err
	}
	classes := r.Problem().Classes
	s.deliv = make(deliveryCounter, len(classes))
	for j, c := range classes {
		for k := 0; k < c.MaxConsumers; k++ {
			if _, err := s.b.AttachConsumer(model.ClassID(j), nil, s.deliv.handler(model.ClassID(j))); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	if err := s.b.ApplyAllocation(res.Allocation); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// makeTape draws n events cycling fail → heal → flap. At most one
// element is down at a time, so before every fail or flap the topology
// is the base one, and each drawn element is checked survivable against
// it here: no timed event is a refused ErrNoPath.
func (s *linkChurn) makeTape(rng *rand.Rand, n int) ([]lcEvent, error) {
	anchored := make([]bool, s.tp.NodeCount())
	for _, fs := range s.specs {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}
	var links, nodes []int
	for li := 0; li < s.tp.LinkCount(); li++ {
		if len(s.r.FlowsThroughLink(li)) > 0 {
			links = append(links, li)
		}
	}
	for b := range anchored {
		if !anchored[b] && len(s.r.FlowsThroughNode(model.NodeID(b))) > 0 {
			nodes = append(nodes, b)
		}
	}
	if len(links) == 0 || len(nodes) == 0 {
		return nil, fmt.Errorf("no loaded links (%d) or relay nodes (%d) to fail", len(links), len(nodes))
	}
	sc := overlay.NewScratch(s.tp)
	known := make(map[lcEvent]bool)
	draw := func() (lcEvent, error) {
		for try := 0; try < 10_000; try++ {
			e := lcEvent{node: rng.Float64() < lcNodeShare}
			var through []int32
			if e.node {
				e.elem = nodes[rng.Intn(len(nodes))]
				through = s.r.FlowsThroughNode(model.NodeID(e.elem))
			} else {
				e.elem = links[rng.Intn(len(links))]
				through = s.r.FlowsThroughLink(e.elem)
			}
			ok, seen := known[e]
			if !seen {
				var err error
				if ok, err = s.survivable(sc, e, through); err != nil {
					return lcEvent{}, err
				}
				known[e] = ok
			}
			if ok {
				e.probe = model.FlowID(through[rng.Intn(len(through))])
				return e, nil
			}
		}
		return lcEvent{}, fmt.Errorf("no survivable element found")
	}
	tape := make([]lcEvent, 0, n)
	for k := 0; k < n; k++ {
		var e lcEvent
		var err error
		switch lcKind(k % 3) {
		case lcFail, lcFlap:
			e, err = draw()
		case lcHeal:
			e = tape[k-1]
		}
		if err != nil {
			return nil, err
		}
		e.kind = lcKind(k % 3)
		tape = append(tape, e)
	}
	return tape, nil
}

// survivable reports whether every flow crossing e can still reach all
// its subscribers with e down, the condition Router.Repair* enforces.
func (s *linkChurn) survivable(sc *overlay.Scratch, e lcEvent, through []int32) (bool, error) {
	var err error
	if e.node {
		err = s.tp.RemoveNode(model.NodeID(e.elem))
	} else {
		err = s.tp.RemoveLink(e.elem)
	}
	if err != nil {
		return false, err
	}
	ok := true
	for _, fi := range through {
		fs := s.specs[fi]
		if _, _, terr := s.tp.BuildTreeInto(sc, fs.Source, subscriberNodes(fs), overlay.Tree{Source: -1}); terr != nil {
			ok = false
			break
		}
	}
	if e.node {
		err = s.tp.RestoreNode(model.NodeID(e.elem))
	} else {
		err = s.tp.RestoreLink(e.elem)
	}
	return ok, err
}

func subscriberNodes(fs overlay.FlowSpec) []model.NodeID {
	subs := make([]model.NodeID, len(fs.Classes))
	for k, cs := range fs.Classes {
		subs[k] = cs.Node
	}
	return subs
}

func (s *linkChurn) close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

func (s *linkChurn) play(h *harness) error {
	pub := newPublisher(s.b, lcPublishRate, s.opts.seed, func(rng *rand.Rand) model.FlowID {
		return model.FlowID(rng.Intn(len(s.specs)))
	}, s.deliv)
	base := s.b.AllClassStats(nil)
	es0 := s.b.EnactStats()
	st0 := stageSnapshot(s.em)
	if err := h.drive(pub, len(s.tape), lcInterval, func(k int, due time.Time) (outcome, error) {
		return s.event(h, s.tape[k], due)
	}); err != nil {
		return err
	}
	checkDeliveries(h, s.b, s.deliv, base)
	s.layerMetrics(h, es0, st0)
	return nil
}

// down fails e through the router.
func (s *linkChurn) down(h *harness, e lcEvent) error {
	t0 := time.Now()
	var st overlay.RepairStats
	var err error
	if e.node {
		st, err = s.r.RepairNode(model.NodeID(e.elem))
	} else {
		st, err = s.r.RepairLink(e.elem)
	}
	h.span("overlay.repair", t0)
	s.countRepair(st)
	return err
}

// up restores e through the router.
func (s *linkChurn) up(h *harness, e lcEvent) error {
	t0 := time.Now()
	var st overlay.RepairStats
	var err error
	if e.node {
		st, err = s.r.RestoreNode(model.NodeID(e.elem))
	} else {
		st, err = s.r.RestoreLink(e.elem)
	}
	h.span("overlay.restore", t0)
	s.countRepair(st)
	return err
}

func (s *linkChurn) countRepair(st overlay.RepairStats) {
	s.overlayCalls++
	s.affected += st.Affected
	s.rerouted += st.Rerouted
	s.bfsRuns += st.BFSRuns
}

func (s *linkChurn) event(h *harness, e lcEvent, due time.Time) (outcome, error) {
	var err error
	switch e.kind {
	case lcFail:
		err = s.down(h, e)
	case lcHeal:
		err = s.up(h, e)
	case lcFlap:
		if err = s.down(h, e); err == nil {
			err = s.up(h, e)
		}
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s %v: %w", lcKindNames[e.kind], e, err)
	}
	t := time.Now()
	d := s.r.TakeDelta()
	t = h.span("overlay.take_delta", t)
	if err := s.eng.ResetRouting(s.r.Problem(), d); err != nil {
		return outcome{}, err
	}
	t = h.span("core.reset_routing", t)
	res := s.eng.Solve(lcSolveCap)
	t = h.span("core.solve", t)
	if err := s.b.ApplyAllocation(res.Allocation); err != nil {
		return outcome{}, err
	}
	end := h.span("broker.apply", t)

	s.solves++
	s.iters += res.Iterations
	if !res.Converged {
		s.unconverged++
	}
	h.check("enacted allocation", model.CheckFeasible(s.eng.Problem(), s.eng.Index(), res.Allocation, feasTol))
	s.statsBuf = checkAdmitted(h, s.b, res.Allocation, s.statsBuf)
	s.checkTree(h, e.probe)
	return outcome{reaction: end.Sub(due), utility: res.Utility}, nil
}

// checkTree compares the router's incrementally maintained tree for flow
// i with a from-scratch BuildTree over the current topology.
func (s *linkChurn) checkTree(h *harness, i model.FlowID) {
	fs := s.specs[i]
	want, err := s.tp.BuildTree(fs.Source, subscriberNodes(fs))
	if err != nil {
		h.fail("flow %d: from-scratch tree: %v", i, err)
		return
	}
	got := s.r.Tree(i)
	if got.Source != want.Source || !slices.Equal(got.Links, want.Links) || !slices.Equal(got.Nodes, want.Nodes) {
		h.fail("flow %d: router tree (%d links) differs from a from-scratch BuildTree (%d links)", i, len(got.Links), len(want.Links))
	}
}

func (s *linkChurn) layerMetrics(h *harness, es0 broker.EnactStats, st0 stageTimes) {
	if !h.opts.trace {
		return
	}
	l := h.layer
	l["overlay.repair_us"] = h.meanSpan("overlay.repair", time.Microsecond)
	l["overlay.restore_us"] = h.meanSpan("overlay.restore", time.Microsecond)
	if s.overlayCalls > 0 {
		l["overlay.affected"] = float64(s.affected) / float64(s.overlayCalls)
		l["overlay.rerouted"] = float64(s.rerouted) / float64(s.overlayCalls)
		l["overlay.bfs_runs"] = float64(s.bfsRuns) / float64(s.overlayCalls)
	}
	if s.affected > 0 {
		l["overlay.reroute_ratio"] = float64(s.rerouted) / float64(s.affected)
	}
	l["core.reset_routing_us"] = h.meanSpan("core.reset_routing", time.Microsecond)
	solveTime := h.spanSum("core.solve")
	engineLayer(l, s.em, st0, s.solves, s.iters, s.unconverged, solveTime)
	l["broker.apply_us"] = h.meanSpan("broker.apply", time.Microsecond)
	enactLayer(l, es0, s.b.EnactStats())
}
