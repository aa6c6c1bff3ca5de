package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// dist-churn runs the distributed optimizer: a dist.Cluster of one agent
// per flow and per node over the in-memory transport, lrgp-broker's
// default dist configuration. Between Run calls three of the six flows of
// one replica of the paper's base workload leave, and the next event
// brings them back. After each event the cluster runs until its utility
// re-converges, which must land within 1% of the centralized
// Engine.Solve utility for the same flow set, and the allocation is
// enacted on a broker. It is the only workload that exercises dist and
// transport.
const (
	dcFlowCopies = 17
	dcNodeSets   = 2
	// dcBand is how close the re-converged utility must come to the
	// centralized Engine.Solve utility for the same flow set.
	dcBand = 0.01
	// dcChunk is the Run length between convergence checks. Each round
	// sends the collector one message per flow and per node (204 here),
	// and agents do not wait for the collector, so a Run of more than
	// five rounds can overflow its 1024-message in-memory inbox when the
	// collector is starved of CPU; the lost message stalls the cluster
	// for good (see README.md). Four rounds leave room for the event's
	// own departure and rejoin announcements.
	dcChunk = 4
	// dcMaxRounds bounds one event's re-convergence.
	dcMaxRounds = 400
	// dcWarmRounds bring the cluster to its fixpoint at set-up.
	dcWarmRounds = 300
	// dcRefIters bounds each reference solve.
	dcRefIters    = 4000
	dcInterval    = 200 * time.Millisecond
	dcPublishRate = 1000
	// dcConsumers caps each class's attached consumers on the broker.
	dcConsumers = 20
	// dcTimeout fails a Run whose rounds stopped completing.
	dcTimeout = 10 * time.Second
)

type dcEvent struct {
	leave bool
	copy  int
}

type distChurn struct {
	opts  options
	p     *model.Problem
	net   *transport.Memory
	cl    *dist.Cluster
	b     *broker.Broker
	deliv deliveryCounter
	*dcInputs

	dm  *telemetry.DistMetrics
	enm *telemetry.EnactMetrics

	statsBuf               []broker.ClassStats
	rounds, toBand, events int
	runTime                time.Duration
}

// dcInputs are the benchmark's own inputs for dist-churn, computed once
// per run: ref[c+1] is the centralized utility with flow copy c
// departed, ref[0] with every flow present; check[c+1] is the matching
// problem for feasibility checks (departed flows carry rate 0 and no
// consumers), ix[c+1] its index.
type dcInputs struct {
	ref   []float64
	check []*model.Problem
	ix    []*model.Index
	tape  []dcEvent
}

func prepareDistChurn(opts options) (builder, error) {
	copies, sets := dcFlowCopies, dcNodeSets
	if opts.tiny {
		copies, sets = 3, 1
	}
	scaled := func() *model.Problem {
		return workload.Scaled(workload.Config{FlowCopies: copies, NodeSetCopies: sets})
	}
	in := &dcInputs{
		ref:   make([]float64, copies+1),
		check: make([]*model.Problem, copies+1),
		ix:    make([]*model.Index, copies+1),
	}
	p := scaled()
	for c := -1; c < copies; c++ {
		u, q, err := reference(p, departing(c))
		if err != nil {
			return nil, err
		}
		in.ref[c+1], in.check[c+1], in.ix[c+1] = u, q, model.NewIndex(q)
	}
	rng := rand.New(rand.NewSource(opts.seed))
	n := tapeLength(opts, dcInterval)
	in.tape = make([]dcEvent, 0, n)
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			in.tape = append(in.tape, dcEvent{leave: true, copy: rng.Intn(copies)})
		} else {
			in.tape = append(in.tape, dcEvent{copy: in.tape[k-1].copy})
		}
	}
	return func(sw *stopwatch) (stack, error) {
		sw.stop()
		p := scaled()
		sw.start()
		return setupDistChurn(opts, p, in)
	}, nil
}

func setupDistChurn(opts options, p *model.Problem, in *dcInputs) (stack, error) {
	s := &distChurn{opts: opts, p: p, net: transport.NewMemory(), dcInputs: in}
	if opts.trace {
		reg := telemetry.NewRegistry()
		s.dm = telemetry.NewDistMetrics(reg)
		s.enm = telemetry.NewEnactMetrics(reg)
	}

	var err error
	s.cl, err = dist.New(p, dist.Config{Core: core.Config{Adaptive: true}, Telemetry: s.dm}, s.net)
	if err != nil {
		s.close()
		return nil, err
	}
	for r := 0; r < dcWarmRounds; r += dcChunk {
		if _, err := s.cl.Run(dcChunk, dcTimeout); err != nil {
			s.close()
			return nil, err
		}
	}
	s.b, err = broker.New(p.Clone(), broker.WithEnactTelemetry(s.enm))
	if err != nil {
		s.close()
		return nil, err
	}
	s.deliv = make(deliveryCounter, len(p.Classes))
	for j, c := range p.Classes {
		for k := 0; k < c.MaxConsumers && k < dcConsumers; k++ {
			if _, err := s.b.AttachConsumer(model.ClassID(j), nil, s.deliv.handler(model.ClassID(j))); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	if err := s.b.ApplyAllocation(s.cl.Allocation()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// departing returns the flows a dist-churn event of copy c moves: flows
// 1, 2 and 5 of that replica of the base workload (none for c < 0).
// The replica's consumer nodes S0, S1 and S2 (Table 1) keep flows
// {0, 3, 4}, {4} and {0, 3}: every node still carries an active flow.
// A departure that leaves a node agent with no active flow stalls the
// synchronous cluster (see README.md), so the tape never produces one.
func departing(c int) []model.FlowID {
	if c < 0 {
		return nil
	}
	base := model.FlowID(c * 6)
	return []model.FlowID{base + 1, base + 2, base + 5}
}

// reference solves the flow set without the departed flows on a cold
// centralized engine and returns its utility, plus the problem that
// set's allocations must be feasible for: departed flows carry rate 0
// and no consumers.
func reference(p *model.Problem, departed []model.FlowID) (float64, *model.Problem, error) {
	eng, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		return 0, nil, err
	}
	defer eng.Close()
	q := p.Clone()
	for _, i := range departed {
		eng.SetFlowActive(i, false)
		q.Flows[i].RateMin = 0
		for j := range q.Classes {
			if q.Classes[j].Flow == i {
				q.Classes[j].MaxConsumers = 0
			}
		}
	}
	res := eng.Solve(dcRefIters)
	if !res.Converged {
		return 0, nil, fmt.Errorf("reference solve without flows %v did not converge in %d iterations", departed, dcRefIters)
	}
	return res.Utility, q, nil
}

func (s *distChurn) close() {
	if s.cl != nil {
		if err := s.cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: dist close:", err)
		}
	}
	s.net.Close()
}

func (s *distChurn) play(h *harness) error {
	pub := newPublisher(s.b, dcPublishRate, s.opts.seed, func(rng *rand.Rand) model.FlowID {
		return model.FlowID(rng.Intn(len(s.p.Flows)))
	}, s.deliv)
	base := s.b.AllClassStats(nil)
	es0 := s.b.EnactStats()
	net0 := s.net.NetStats()
	if err := h.drive(pub, len(s.tape), dcInterval, func(k int, due time.Time) (outcome, error) {
		return s.event(h, k, due)
	}); err != nil {
		return err
	}
	checkDeliveries(h, s.b, s.deliv, base)
	if h.opts.trace {
		l := h.layer
		if s.rounds > 0 {
			l["dist.round_ms"] = float64(s.runTime) / float64(s.rounds) / float64(time.Millisecond)
			net := s.net.NetStats()
			frames := net.JSON.Frames + net.Binary.Frames - net0.JSON.Frames - net0.Binary.Frames
			bytes := net.JSON.Bytes + net.Binary.Bytes - net0.JSON.Bytes - net0.Binary.Bytes
			l["transport.frames_per_round"] = float64(frames) / float64(s.rounds)
			l["transport.bytes_per_round"] = float64(bytes) / float64(s.rounds)
			l["transport.dropped"] = float64(net.Dropped - net0.Dropped)
		}
		if s.events > 0 {
			l["dist.rounds_to_band"] = float64(s.toBand) / float64(s.events)
		}
		l["broker.apply_us"] = h.meanSpan("broker.apply", time.Microsecond)
		enactLayer(l, es0, s.b.EnactStats())
	}
	return nil
}

// event applies tape entry k, runs the cluster until it re-converges,
// and enacts the result. The reaction is the event's start lag plus its
// control sends, the rounds to re-convergence times the measured wall
// time per round, and the enact: Run returns in chunks, so the rounds a
// chunk runs past re-convergence are not charged.
func (s *distChurn) event(h *harness, k int, due time.Time) (outcome, error) {
	e := s.tape[k]
	t0 := time.Now()
	for _, i := range departing(e.copy) {
		var err error
		if e.leave {
			err = s.cl.RemoveFlow(i)
		} else {
			err = s.cl.JoinFlow(i)
		}
		if err != nil {
			return outcome{}, err
		}
	}
	control := h.span("dist.control", t0).Sub(t0)

	set := 0
	if e.leave {
		set = e.copy + 1
	}
	ref := s.ref[set]
	// Re-converged is the paper's rule, as Engine.Solve applies it: the
	// utility's amplitude over the trailing rounds is below 0.1%.
	det := metrics.NewConvergenceDetector(0, 0)
	var run time.Duration
	var first, last float64
	rounds := 0
	for rounds < dcMaxRounds && !det.Converged() {
		t := time.Now()
		stats, err := s.cl.Run(dcChunk, dcTimeout)
		run += h.span("dist.run", t).Sub(t)
		if err != nil {
			return outcome{}, err
		}
		for _, st := range stats {
			if rounds == 0 {
				first = st.Utility
			}
			rounds++
			if !det.Converged() {
				det.Observe(st.Utility)
				last = st.Utility
			}
		}
	}
	settled := det.ConvergedAt()
	if h.opts.trace {
		// The first post-event utility shows on which round the
		// departure or rejoin took effect; it is not bit-stable across
		// runs (see README.md).
		fmt.Fprintf(h.log, "dist-churn event %d: %s copy %d, first-round utility %.0f, re-converged at round %d, utility %.0f vs centralized %.0f\n",
			k, map[bool]string{true: "leave", false: "join"}[e.leave], e.copy, first, settled, last, ref)
	}
	if settled < 0 {
		return outcome{}, fmt.Errorf("no re-convergence in %d rounds (utility %.0f)", rounds, last)
	}
	t := time.Now()
	alloc := s.cl.Allocation()
	err := s.b.ApplyAllocation(alloc)
	apply := h.span("broker.apply", t).Sub(t)
	if err != nil {
		return outcome{}, err
	}
	s.rounds += rounds
	s.runTime += run
	s.toBand += settled
	s.events++
	perRound := run / time.Duration(rounds)
	reaction := t0.Sub(due) + control + time.Duration(settled)*perRound + apply

	if math.Abs(last-ref) > dcBand*ref {
		h.fail("event %d: final utility %.0f outside %.0f%% of the centralized %.0f", k, last, 100*dcBand, ref)
	}
	h.check("enacted allocation", model.CheckFeasible(s.check[set], s.ix[set], alloc, feasTol))
	s.statsBuf = checkAdmitted(h, s.b, alloc, s.statsBuf)
	return outcome{reaction: reaction, utility: last}, nil
}
