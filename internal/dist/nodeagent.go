package dist

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// nodeAgent runs Algorithm 2 (greedy consumer allocation plus the Equation
// 12 price update) for one node, and Algorithm 3 (Equation 13) for the
// links it owns (links whose To endpoint is this node, per the paper's
// footnote that one of the two endpoint nodes computes a link's price).
type nodeAgent struct {
	p    *model.Problem
	node model.NodeID
	ep   transport.Endpoint
	cfg  core.Config

	alloc *core.NodeAllocator
	gamma *core.AdaptiveGamma
	// mrAlloc is non-nil in multirate mode and replaces alloc; deliveries
	// buffers the per-class delivery rates it computes.
	mrAlloc    *multirate.NodeAllocator
	deliveries []float64

	// classes attached at this node.
	classes []model.ClassID
	// ownedLinks and their static flow coefficients.
	ownedLinks []model.LinkID
	linkFlows  map[model.LinkID][]model.FlowID

	// expected is the set of flows whose rates this agent needs each
	// round: flows through the node plus flows of owned links.
	expected map[model.FlowID]bool
	// peers maps each expected flow to its agent endpoint name.
	peers map[model.FlowID]string

	// Dynamic state.
	rates      []float64
	consumers  []int
	price      float64
	linkPrices map[model.LinkID]float64
	inactive   map[model.FlowID]bool
	tickEvery  time.Duration
	staleness  int           // bounded-staleness window (runStale only)
	resend     time.Duration // re-broadcast interval when stalled (runStale)

	rec     *recorder              // flight recorder (nil = off)
	tel     *telemetry.DistMetrics // dist telemetry (nil = off)
	chirped bool                   // a chirp fired since the last progress

	done chan struct{}
}

func newNodeAgent(p *model.Problem, ix *model.Index, b model.NodeID, ep transport.Endpoint, c Config) *nodeAgent {
	cfg := c.Core
	na := &nodeAgent{
		p:          p,
		node:       b,
		ep:         ep,
		cfg:        cfg,
		alloc:      core.NewNodeAllocator(p, ix, b),
		gamma:      core.NewAdaptiveGamma(cfg),
		classes:    ix.ClassesByNode(b),
		linkFlows:  make(map[model.LinkID][]model.FlowID),
		expected:   make(map[model.FlowID]bool),
		peers:      make(map[model.FlowID]string),
		rates:      make([]float64, len(p.Flows)),
		consumers:  make([]int, len(p.Classes)),
		price:      cfg.InitialNodePrice,
		linkPrices: make(map[model.LinkID]float64),
		inactive:   make(map[model.FlowID]bool),
		tickEvery:  c.Tick,
		staleness:  c.Staleness,
		resend:     c.Resend,
		done:       make(chan struct{}),
	}
	for _, i := range ix.FlowsByNode(b) {
		na.expected[i] = true
		na.peers[i] = flowName(i)
	}
	for l := range p.Links {
		if p.Links[l].To != b {
			continue
		}
		lid := model.LinkID(l)
		na.ownedLinks = append(na.ownedLinks, lid)
		na.linkPrices[lid] = cfg.InitialLinkPrice
		for _, i := range ix.FlowsByLink(lid) {
			na.linkFlows[lid] = append(na.linkFlows[lid], i)
			na.expected[i] = true
			na.peers[i] = flowName(i)
		}
	}
	if c.Multirate {
		na.mrAlloc = multirate.NewNodeAllocator(p, ix, b)
		na.deliveries = make([]float64, len(p.Classes))
	}
	return na
}

// compute runs one allocation + price update from the current rates and
// returns the report to broadcast.
func (na *nodeAgent) compute(round int) reportMsg {
	var out core.NodeAllocation
	if na.mrAlloc != nil {
		mrOut := na.mrAlloc.Allocate(na.rates, na.price, na.consumers, na.deliveries)
		out = core.NodeAllocation{Used: mrOut.Used, BestUnsatisfied: mrOut.BestUnsatisfied}
	} else {
		out = na.alloc.Allocate(na.rates, na.consumers)
	}

	gamma1, gamma2 := na.cfg.Gamma1, na.cfg.Gamma2
	if na.cfg.Adaptive {
		gamma1 = na.gamma.Value()
		gamma2 = gamma1
	}
	prev := na.price
	capacity := na.p.Nodes[na.node].Capacity
	na.price = core.NodePriceStep(prev, out.BestUnsatisfied, out.Used, capacity, gamma1, gamma2)
	if na.cfg.Adaptive {
		na.gamma.Observe(core.PriceGap(prev, out.BestUnsatisfied, out.Used, capacity), prev)
	}

	rm := reportMsg{
		Round:  round,
		Node:   na.node,
		Price:  na.price,
		Used:   out.Used,
		BestBC: out.BestUnsatisfied,
	}
	if len(na.classes) > 0 {
		rm.Populations = make(map[model.ClassID]int, len(na.classes))
		for _, cid := range na.classes {
			rm.Populations[cid] = na.consumers[cid]
		}
		if na.mrAlloc != nil {
			rm.Deliveries = make(map[model.ClassID]float64, len(na.classes))
			for _, cid := range na.classes {
				rm.Deliveries[cid] = na.deliveries[cid]
			}
		}
	}
	if len(na.ownedLinks) > 0 {
		rm.LinkPrices = make(map[model.LinkID]float64, len(na.ownedLinks))
		for _, lid := range na.ownedLinks {
			used := 0.0
			for _, i := range na.linkFlows[lid] {
				used += na.p.Links[lid].FlowCost[i] * na.rates[i]
			}
			na.linkPrices[lid] = core.LinkPriceStep(na.linkPrices[lid], used, na.p.Links[lid].Capacity, na.cfg.LinkGamma)
			rm.LinkPrices[lid] = na.linkPrices[lid]
		}
	}
	return rm
}

// broadcast sends a report to every (still expected) flow agent and the
// collector. The body is encoded once and the payload shared across all
// peer messages (receivers treat payloads as read-only). As in
// flowAgent.announce, only a closed transport is fatal; lossy-delivery
// failures are tolerated.
func (na *nodeAgent) broadcast(rm reportMsg) error {
	payload := rm.appendBinary(nil)
	from := na.ep.Name()
	// Inactive flows are reported to as well: a rejoining flow's first
	// announce can race this node's round computation (the node learns of
	// the rejoin only from that announce), and if it loses the race the
	// flow still needs this round's report to pass its barrier — skipping
	// inactive peers deadlocked exactly that interleaving. Idle agents
	// drain their inbox, so the extra frames are harmless.
	for _, peer := range na.peers {
		msg := transport.Message{From: from, To: peer, Kind: reportKind, Payload: payload}
		if err := na.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
			return fmt.Errorf("dist: node %d report to %s: %w", na.node, peer, err)
		}
	}
	msg := transport.Message{From: from, To: collectorName, Kind: reportKind, Payload: payload}
	if err := na.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
		return err
	}
	return nil
}

// markInactive processes a flow departure.
func (na *nodeAgent) markInactive(i model.FlowID) {
	na.inactive[i] = true
	na.rates[i] = 0
	na.alloc.SetFlowActive(i, false)
	if na.mrAlloc != nil {
		na.mrAlloc.SetFlowActive(i, false)
	}
}

// markActive processes a flow (re)join.
func (na *nodeAgent) markActive(i model.FlowID) {
	na.inactive[i] = false
	na.alloc.SetFlowActive(i, true)
	if na.mrAlloc != nil {
		na.mrAlloc.SetFlowActive(i, true)
	}
}

// recordProgress logs one computed round (the report broadcast plus the
// round advance) and credits a pending chirp with the repair.
func (na *nodeAgent) recordProgress(round, lag int) {
	na.rec.record(EvSend, round, int64(lag), int64(len(na.peers)))
	na.rec.record(EvRound, round, 0, 0)
	if na.chirped {
		na.chirped = false
		na.tel.ObserveRepair(false)
	}
}

// observedLag is the effective staleness of round t's inputs: the gap
// between t and the oldest absorbed rate among active flows.
func (na *nodeAgent) observedLag(t int, latest map[model.FlowID]int) int {
	oldest := t
	for i := range na.expected {
		if na.inactive[i] {
			continue
		}
		if r := latest[i]; r < oldest {
			oldest = r
		}
	}
	lag := t - oldest
	if lag < 0 {
		lag = 0
	}
	return lag
}

// runStale is the Sync-mode round loop: the node computes round t as
// soon as (a) at least one flow has actually announced round t and (b)
// every active expected flow's freshest rate is at most `staleness` rounds
// behind t, using the latest absorbed rate for each flow. With staleness 0
// this is the barrier schedule (every flow must have announced round t,
// and its latest rate then is its round-t rate). A resend timer
// re-broadcasts the latest report while idle so dropped report frames
// cannot deadlock flows or starve the collector.
func (na *nodeAgent) runStale() {
	defer close(na.done)
	latest := make(map[model.FlowID]int, len(na.expected)) // freshest announced round per flow
	nextRound := 1
	var lastReport reportMsg
	haveReport := false
	backoff := na.resend
	timer := time.NewTimer(na.resend)
	defer timer.Stop()

	for {
		select {
		case m, ok := <-na.ep.Recv():
			if !ok {
				return
			}
			switch m.Kind {
			case ctrlKind:
				cm, err := decodeCtrl(m)
				if err != nil {
					continue
				}
				if cm.Stop {
					return
				}
			case rateKind:
				rm, err := decodeRate(m)
				if err != nil || !na.expected[rm.Flow] {
					continue
				}
				if !rm.Active {
					na.rec.record(EvRecv, rm.Round, int64(rm.Flow), 0)
					if !na.inactive[rm.Flow] {
						na.markInactive(rm.Flow)
					}
				} else {
					if na.inactive[rm.Flow] {
						na.markActive(rm.Flow)
					}
					// Monotonic guard: a resent or reordered older rate
					// must not overwrite a fresher one.
					if rm.Round >= latest[rm.Flow] {
						latest[rm.Flow] = rm.Round
						na.rates[rm.Flow] = rm.Rate
						na.rec.record(EvAbsorb, rm.Round, int64(rm.Flow), 0)
					} else {
						na.rec.record(EvRecv, rm.Round, int64(rm.Flow), 0)
					}
				}
			}
		case <-timer.C:
			// Chirp with exponential backoff; see flowAgent.runStale.
			if haveReport {
				if err := na.broadcast(lastReport); err != nil {
					return
				}
				na.rec.record(EvResend, lastReport.Round, int64(backoff), 0)
				na.tel.ObserveChirp(false)
				na.chirped = true
			}
			if backoff < 16*na.resend {
				backoff *= 2
				na.tel.ObserveBackoff(false)
			}
			timer.Reset(backoff)
			continue
		}

		// Price updates are sequential state, so rounds are computed in
		// order; the staleness bound only relaxes which inputs each one
		// needs.
		computed := false
		for na.canComputeStale(nextRound, latest) {
			lag := na.observedLag(nextRound, latest)
			lastReport = na.compute(nextRound)
			haveReport = true
			if err := na.broadcast(lastReport); err != nil {
				return
			}
			na.recordProgress(nextRound, lag)
			nextRound++
			computed = true
		}
		if computed {
			// Progress: defer the re-broadcast so it fires only after a
			// genuine stall (see flowAgent.runStale).
			backoff = na.resend
			timer.Reset(backoff)
		}
	}
}

// canComputeStale reports whether round t's inputs satisfy the staleness
// bound: some active flow has reached round t, and no active flow is more
// than `staleness` rounds behind it.
func (na *nodeAgent) canComputeStale(t int, latest map[model.FlowID]int) bool {
	need := t - na.staleness
	if need < 1 {
		need = 1
	}
	reached := false
	for i := range na.expected {
		if na.inactive[i] {
			continue
		}
		r := latest[i]
		if r < need {
			return false
		}
		if r >= t {
			reached = true
		}
	}
	return reached
}

// runAsync recomputes on a timer from the latest rates.
func (na *nodeAgent) runAsync() {
	defer close(na.done)
	ticker := time.NewTicker(na.tickEvery)
	defer ticker.Stop()
	round := 1
	for {
		select {
		case m, ok := <-na.ep.Recv():
			if !ok {
				return
			}
			switch m.Kind {
			case ctrlKind:
				cm, err := decodeCtrl(m)
				if err != nil {
					continue
				}
				if cm.Stop {
					return
				}
			case rateKind:
				rm, err := decodeRate(m)
				if err != nil {
					continue
				}
				if !na.expected[rm.Flow] {
					continue
				}
				if !rm.Active {
					na.rec.record(EvRecv, rm.Round, int64(rm.Flow), 0)
					na.markInactive(rm.Flow)
				} else {
					if na.inactive[rm.Flow] {
						na.markActive(rm.Flow)
					}
					na.rates[rm.Flow] = rm.Rate
					na.rec.record(EvAbsorb, rm.Round, int64(rm.Flow), 0)
				}
			}
		case <-ticker.C:
			report := na.compute(round)
			if err := na.broadcast(report); err != nil {
				return
			}
			na.recordProgress(round, 0)
			round++
		}
	}
}
