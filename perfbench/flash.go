package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// demand-flash runs broker.Autopilot over a metro broker (independent
// pods, componentized problem: the engine's fused schedule) with a static
// topology. The tape repeats a six-event pattern: a flash crowd arrives
// (consumers attach to every class of one pod), two diurnal shifts of the
// publisher's per-flow offered rate, the crowd leaves, two more shifts. Each event is followed
// by one Autopilot.Cycle. The publisher runs at a high fixed rate with
// real fan-out, so Publish reads race enact writes on the shared CPUs.
// The overlay does no work here.
const (
	dfPods = 100
	// dfBaseConsumers is each class's attached population at set-up;
	// dfCrowd is how many consumers a flash crowd adds to each class of
	// its pod.
	dfBaseConsumers = 3
	dfCrowd         = 2
	// dfSetupCycles bring the autopilot to its operating point before
	// the publisher starts; dfWarmEvents are untimed cycles after it
	// starts, so the offered-rate estimator has seen live load before
	// the first recorded event.
	dfSetupCycles = 3
	dfWarmEvents  = 3
	dfInterval    = 100 * time.Millisecond
	// dfOfferPerFlow is each flow's mean offered rate in messages/s, and
	// dfSwing the diurnal curve's relative swing around it. The
	// autopilot caps a flow's RateMax at its offered-rate estimate times
	// the default RateHeadroom (1.25), floored at the flow's RateMin
	// (10/s in MetroSized): a flow offering under 8/s sits at RateMin
	// and no shift of its offer changes the problem. At the curve's
	// trough a flow offers 24 × 0.5 = 12/s, 1.5 times that floor, so
	// every diurnal shift moves every flow's cap.
	dfOfferPerFlow = 24
	dfSwing        = 0.5
	// dfPhaseStep advances the diurnal curve by one eighth of a day.
	dfPhaseStep = math.Pi / 4
)

type dfKind int

const (
	dfTick dfKind = iota // warm-up: cycle only
	dfFlashOn
	dfDiurnal
	dfFlashOff
)

var dfKindNames = [...]string{"tick", "flash-on", "diurnal", "flash-off"}

type dfEvent struct {
	kind dfKind
	pod  int
}

type demandFlash struct {
	opts  options
	p     *model.Problem
	pods  int
	b     *broker.Broker
	ap    *broker.Autopilot
	deliv deliveryCounter
	tape  []dfEvent

	// weights is the publisher's per-flow offer distribution (mean 1),
	// swapped whole by diurnal events.
	weights atomic.Pointer[[]float64]
	phase   float64
	crowd   []broker.ConsumerID

	em  *telemetry.EngineMetrics
	enm *telemetry.EnactMetrics

	statsBuf              []broker.ClassStats
	cycles, unconverged   int
	iters                 uint64
	cycleStep, cycleApply float64 // seconds inside recorded cycles
	cycleApplies          uint64
	cycleTime             time.Duration
	ap0                   broker.AutopilotStats
	// Traced runs: per event kind, the events, the enacting cycles and
	// the flows whose rate those enacts changed.
	kindEvents, kindEnacts, kindFlows [len(dfKindNames)]uint64
}

func prepareDemandFlash(opts options) (builder, error) {
	pods := dfPods
	if opts.tiny {
		pods = 8
	}
	tape := makeFlashTape(opts, pods)
	return func(sw *stopwatch) (stack, error) {
		sw.stop()
		p := workload.MetroSized(workload.MetroConfig{Pods: pods, FlowsPerPod: 10, NodesPerPod: 50, ClassesPerFlow: 40})
		sw.start()
		return setupDemandFlash(opts, p, pods, tape)
	}, nil
}

func setupDemandFlash(opts options, p *model.Problem, pods int, tape []dfEvent) (stack, error) {
	s := &demandFlash{opts: opts, p: p, pods: pods, tape: tape}
	if opts.trace {
		reg := telemetry.NewRegistry()
		s.em = telemetry.NewEngineMetrics(reg)
		s.enm = telemetry.NewEnactMetrics(reg)
	}
	var err error
	s.b, err = broker.New(p, broker.WithEnactTelemetry(s.enm))
	if err != nil {
		return nil, err
	}
	s.deliv = make(deliveryCounter, len(p.Classes))
	for j, c := range p.Classes {
		for k := 0; k < c.MaxConsumers && k < dfBaseConsumers; k++ {
			if _, err := s.b.AttachConsumer(model.ClassID(j), nil, s.deliv.handler(model.ClassID(j))); err != nil {
				return nil, err
			}
		}
	}
	// lrgp-broker's autopilot configuration: adaptive engine, every
	// other setting at its zero-value default.
	s.ap, err = broker.NewAutopilot(s.b, broker.AutopilotConfig{
		Core:      core.Config{Adaptive: true, Telemetry: s.em},
		Telemetry: s.enm,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < dfSetupCycles; i++ {
		if _, _, err := s.ap.Cycle(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.setWeights()
	return s, nil
}

// makeFlashTape draws the event tape: warm-up ticks, then the six-event
// pattern with each flash crowd on a random pod.
func makeFlashTape(opts options, pods int) []dfEvent {
	rng := rand.New(rand.NewSource(opts.seed))
	n := tapeLength(opts, dfInterval)
	tape := make([]dfEvent, 0, n)
	pod := 0
	for k := 0; k < n; k++ {
		e := dfEvent{kind: dfTick}
		if k >= dfWarmEvents {
			switch (k - dfWarmEvents) % 6 {
			case 0:
				pod = rng.Intn(pods)
				e = dfEvent{kind: dfFlashOn, pod: pod}
			case 3:
				e = dfEvent{kind: dfFlashOff, pod: pod}
			default:
				e = dfEvent{kind: dfDiurnal}
			}
		}
		tape = append(tape, e)
	}
	return tape
}

// setWeights publishes the offer distribution for the current phase:
// each flow of pod q offers in proportion to
// 1 + dfSwing·sin(phase + 2πq/pods), normalized to a mean weight of 1.
func (s *demandFlash) setWeights() {
	flowsPerPod := len(s.p.Flows) / s.pods
	w := make([]float64, len(s.p.Flows))
	total := 0.0
	for i := range w {
		q := i / flowsPerPod
		w[i] = 1 + dfSwing*math.Sin(s.phase+2*math.Pi*float64(q)/float64(s.pods))
		total += w[i]
	}
	for i := range w {
		w[i] *= float64(len(w)) / total
	}
	s.weights.Store(&w)
}

// offerSchedule returns the publisher's flow picker: a deterministic
// credit round robin over the current weights, so every flow offers load
// at its weighted share without sampling gaps. (Random picks leave the
// lightest flows unobserved for seconds, and the autopilot treats an
// unobserved flow as offering its full RateMax.) The picker's state
// belongs to the publishing goroutine.
func (s *demandFlash) offerSchedule() func(*rand.Rand) model.FlowID {
	credit := make([]float64, len(s.p.Flows))
	next := 0
	return func(*rand.Rand) model.FlowID {
		w := *s.weights.Load()
		for {
			i := next
			next = (next + 1) % len(credit)
			credit[i] += w[i]
			if credit[i] >= 1 {
				credit[i]--
				return model.FlowID(i)
			}
		}
	}
}

func (s *demandFlash) close() {
	if s.ap != nil {
		s.ap.Close()
	}
}

func (s *demandFlash) play(h *harness) error {
	pub := newPublisher(s.b, dfOfferPerFlow*float64(len(s.p.Flows)), s.opts.seed, s.offerSchedule(), s.deliv)
	base := s.b.AllClassStats(nil)
	es0 := s.b.EnactStats()
	st0 := stageSnapshot(s.em)
	if err := h.drive(pub, len(s.tape), dfInterval, func(k int, due time.Time) (outcome, error) {
		return s.event(h, s.tape[k], due)
	}); err != nil {
		return err
	}
	checkDeliveries(h, s.b, s.deliv, base)
	s.layerMetrics(h, es0, st0)
	return nil
}

func (s *demandFlash) event(h *harness, e dfEvent, due time.Time) (outcome, error) {
	if e.kind != dfTick && s.cycles == 0 {
		// First recorded event: cycle accounting starts here.
		s.ap0 = s.ap.Stats()
	}
	switch e.kind {
	case dfFlashOn:
		if err := s.flashOn(h, e.pod); err != nil {
			return outcome{}, err
		}
	case dfFlashOff:
		for _, id := range s.crowd {
			t := time.Now()
			err := s.b.DetachConsumer(id)
			h.span("broker.detach", t)
			if err != nil {
				return outcome{}, err
			}
		}
		s.crowd = s.crowd[:0]
	case dfDiurnal:
		s.phase += dfPhaseStep
		s.setWeights()
	}

	st0 := stageSnapshot(s.em)
	var apply0 uint64
	var applySec0 float64
	if s.enm != nil {
		apply0, applySec0 = s.enm.ApplySeconds.CountSum()
	}
	var steps0 uint64
	var es0 broker.EnactStats
	if h.opts.trace {
		steps0 = s.em.Steps.Value()
		es0 = s.b.EnactStats()
	}
	t := time.Now()
	alloc, enacted, err := s.ap.Cycle()
	end := h.span("autopilot.cycle", t)
	if err != nil {
		return outcome{}, err
	}
	warm := e.kind == dfTick
	if !warm {
		s.cycles++
		s.cycleTime += end.Sub(t)
	}
	if h.opts.trace {
		s.kindEvents[e.kind]++
		if enacted {
			s.kindEnacts[e.kind]++
			s.kindFlows[e.kind] += s.b.EnactStats().RatesChanged - es0.RatesChanged
		}
	}
	if !warm && h.opts.trace {
		s.cycleStep += stageSnapshot(s.em).total() - st0.total()
		n, sec := s.enm.ApplySeconds.CountSum()
		s.cycleApplies += n - apply0
		s.cycleApply += sec - applySec0
		s.iters += s.em.Steps.Value() - steps0
		if s.em.Converged.Value() == 0 {
			s.unconverged++
		}
	}
	eng := s.ap.Engine()
	if enacted {
		h.check("enacted allocation", model.CheckFeasible(eng.Problem(), eng.Index(), alloc, feasTol))
		s.statsBuf = checkAdmitted(h, s.b, alloc, s.statsBuf)
	}
	return outcome{reaction: end.Sub(due), utility: eng.Utility(), warm: warm}, nil
}

// flashOn attaches a crowd to every class of one pod.
func (s *demandFlash) flashOn(h *harness, pod int) error {
	flowsPerPod := len(s.p.Flows) / s.pods
	classesPerFlow := len(s.p.Classes) / len(s.p.Flows)
	first := pod * flowsPerPod * classesPerFlow
	for j := first; j < first+flowsPerPod*classesPerFlow; j++ {
		for k := 0; k < dfCrowd; k++ {
			t := time.Now()
			id, err := s.b.AttachConsumer(model.ClassID(j), nil, s.deliv.handler(model.ClassID(j)))
			h.span("broker.attach", t)
			if err != nil {
				return err
			}
			s.crowd = append(s.crowd, id)
		}
	}
	return nil
}

func (s *demandFlash) layerMetrics(h *harness, es0 broker.EnactStats, st0 stageTimes) {
	if !h.opts.trace || s.cycles == 0 {
		return
	}
	l := h.layer
	cycleMs := float64(s.cycleTime) / float64(time.Millisecond) / float64(s.cycles)
	l["autopilot.cycle_ms"] = cycleMs
	l["autopilot.other_ms"] = cycleMs - (s.cycleStep+s.cycleApply)*1e3/float64(s.cycles)
	st := s.ap.Stats()
	if c := st.Cycles - s.ap0.Cycles; c > 0 {
		l["autopilot.enact_ratio"] = float64(st.Enacted-s.ap0.Enacted) / float64(c)
	}
	l["autopilot.oscillation"] = st.Oscillation
	for k, name := range dfKindNames {
		if n := s.kindEnacts[k]; n > 0 {
			fmt.Fprintf(h.log, "demand-flash %s: %d events, %d enacted, %.1f of %d flows changed rate per enact\n",
				name, s.kindEvents[k], n, float64(s.kindFlows[k])/float64(n), len(s.p.Flows))
		}
	}
	// The autopilot's Solve runs inside Cycle, out of the benchmark's
	// reach: its time is the engine's summed stage time.
	engineLayer(l, s.em, st0, s.cycles, int(s.iters), s.unconverged, time.Duration(s.cycleStep*float64(time.Second)))
	if s.cycleApplies > 0 {
		l["broker.apply_us"] = s.cycleApply / float64(s.cycleApplies) * 1e6
	}
	l["broker.attach_us"] = h.meanSpan("broker.attach", time.Microsecond)
	l["broker.detach_us"] = h.meanSpan("broker.detach", time.Microsecond)
	enactLayer(l, es0, s.b.EnactStats())
}
