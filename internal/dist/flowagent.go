package dist

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// flowAgent runs Algorithm 1 for one flow at its source node (or, in
// multirate mode, the capped-classes source-rate solver).
type flowAgent struct {
	p    *model.Problem
	flow model.FlowID
	ep   transport.Endpoint
	ra   *core.RateAllocator
	// mr is non-nil in multirate mode and replaces ra.
	mr *multirate.SourceRateSolver

	// Static path structure.
	nodes     []model.NodeID // B_i
	nodeCoefF map[model.NodeID]float64
	classNode map[model.ClassID]model.NodeID
	classCost map[model.ClassID]float64 // G_{b,j}
	// classesAt lists the flow's classes grouped by node in ascending
	// class-id order, so the Equation 9 coefficient sum has a fixed float
	// association order (maps iterate randomly, which would make
	// trajectories differ at ULP level run to run).
	classesAt  map[model.NodeID][]classTerm
	links      []model.LinkID // L_i
	linkCoef   map[model.LinkID]float64
	linkOwner  map[model.LinkID]model.NodeID
	peerNames  []string       // node agents to exchange with (deduped)
	peerNodes  []model.NodeID // same set as peerNames, as ids
	peerCount  int
	priceAvgWn int // async price-averaging window (>=1)

	// Dynamic state.
	consumers []int
	nodePrice map[model.NodeID]*priceWindow
	linkPrice map[model.LinkID]*priceWindow
	round     int
	runUntil  int
	leaving   bool
	idle      bool          // departed but able to rejoin
	tickEvery time.Duration // async mode when > 0
	staleness int           // bounded-staleness window (runStale only)
	resend    time.Duration // re-announce interval when stalled (runStale)

	rec     *recorder              // flight recorder (nil = off)
	tel     *telemetry.DistMetrics // dist telemetry (nil = off)
	chirped bool                   // a chirp fired since the last progress

	done chan struct{}
}

type classTerm struct {
	cid  model.ClassID
	cost float64
}

// priceWindow keeps the last w prices from one resource and serves their
// average (Section 3.5's asynchronous smoothing; w=1 reduces to "latest").
type priceWindow struct {
	vals []float64
	next int
	n    int
}

func newPriceWindow(w int) *priceWindow {
	if w < 1 {
		w = 1
	}
	return &priceWindow{vals: make([]float64, w)}
}

func (pw *priceWindow) push(v float64) {
	pw.vals[pw.next] = v
	pw.next = (pw.next + 1) % len(pw.vals)
	if pw.n < len(pw.vals) {
		pw.n++
	}
}

func (pw *priceWindow) avg() float64 {
	if pw.n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < pw.n; i++ {
		sum += pw.vals[i]
	}
	return sum / float64(pw.n)
}

func newFlowAgent(p *model.Problem, ix *model.Index, fid model.FlowID, ep transport.Endpoint, c Config) *flowAgent {
	fa := &flowAgent{
		p:          p,
		flow:       fid,
		ep:         ep,
		ra:         core.NewRateAllocator(p, ix, fid),
		nodeCoefF:  make(map[model.NodeID]float64),
		classNode:  make(map[model.ClassID]model.NodeID),
		classCost:  make(map[model.ClassID]float64),
		classesAt:  make(map[model.NodeID][]classTerm),
		linkCoef:   make(map[model.LinkID]float64),
		linkOwner:  make(map[model.LinkID]model.NodeID),
		consumers:  make([]int, len(p.Classes)),
		nodePrice:  make(map[model.NodeID]*priceWindow),
		linkPrice:  make(map[model.LinkID]*priceWindow),
		priceAvgWn: c.PriceWindow,
		round:      1,
		tickEvery:  c.Tick,
		staleness:  c.Staleness,
		resend:     c.Resend,
		done:       make(chan struct{}),
	}
	peers := make(map[model.NodeID]bool)
	for _, b := range ix.NodesByFlow(fid) {
		fa.nodes = append(fa.nodes, b)
		fa.nodeCoefF[b] = p.Nodes[b].FlowCost[fid]
		fa.nodePrice[b] = newPriceWindow(c.PriceWindow)
		fa.nodePrice[b].push(c.Core.InitialNodePrice)
		peers[b] = true
	}
	for _, cid := range ix.ClassesByFlow(fid) {
		cl := &p.Classes[cid]
		fa.classNode[cid] = cl.Node
		fa.classCost[cid] = cl.CostPerConsumer
		fa.classesAt[cl.Node] = append(fa.classesAt[cl.Node], classTerm{cid: cid, cost: cl.CostPerConsumer})
	}
	for _, terms := range fa.classesAt {
		slices.SortFunc(terms, func(a, b classTerm) int { return int(a.cid) - int(b.cid) })
	}
	for _, l := range ix.LinksByFlow(fid) {
		fa.links = append(fa.links, l)
		fa.linkCoef[l] = p.Links[l].FlowCost[fid]
		fa.linkOwner[l] = p.Links[l].To
		fa.linkPrice[l] = newPriceWindow(c.PriceWindow)
		fa.linkPrice[l].push(c.Core.InitialLinkPrice)
		peers[p.Links[l].To] = true
	}
	for b := range peers {
		fa.peerNodes = append(fa.peerNodes, b)
	}
	slices.Sort(fa.peerNodes)
	for _, b := range fa.peerNodes {
		fa.peerNames = append(fa.peerNames, nodeName(b))
	}
	fa.peerCount = len(fa.peerNames)
	if c.Multirate {
		fa.mr = multirate.NewSourceRateSolver(p, ix, fid)
	}
	return fa
}

// computeRate runs the mode-appropriate source-rate allocation from the
// agent's absorbed state.
func (fa *flowAgent) computeRate() float64 {
	if fa.mr == nil {
		return fa.ra.Rate(fa.consumers, fa.pathPrice())
	}
	// Multirate: consumer-independent path price, plus locally computed
	// desired deliveries from each class's node price.
	price := 0.0
	for _, l := range fa.links {
		price += fa.linkCoef[l] * fa.linkPrice[l].avg()
	}
	for _, b := range fa.nodes {
		price += fa.nodeCoefF[b] * fa.nodePrice[b].avg()
	}
	desired := make([]float64, len(fa.p.Classes))
	f := fa.p.Flows[fa.flow]
	for cid, node := range fa.classNode {
		u := fa.p.Classes[cid].Utility
		desired[cid] = multirate.DesiredDelivery(u, fa.classCost[cid]*fa.nodePrice[node].avg(), f.RateMin, f.RateMax)
	}
	return fa.mr.Rate(fa.consumers, desired, price)
}

// pathPrice computes PL_i + PB_i (Equations 8 and 9) from the current
// (averaged) prices and populations.
func (fa *flowAgent) pathPrice() float64 {
	price := 0.0
	for _, l := range fa.links {
		price += fa.linkCoef[l] * fa.linkPrice[l].avg()
	}
	for _, b := range fa.nodes {
		coeff := fa.nodeCoefF[b]
		for _, ct := range fa.classesAt[b] {
			coeff += ct.cost * float64(fa.consumers[ct.cid])
		}
		price += coeff * fa.nodePrice[b].avg()
	}
	return price
}

// absorbReport folds a node report into local state.
func (fa *flowAgent) absorbReport(rm reportMsg) {
	if pw, ok := fa.nodePrice[rm.Node]; ok {
		pw.push(rm.Price)
	}
	for cid, n := range rm.Populations {
		if _, mine := fa.classNode[cid]; mine {
			fa.consumers[cid] = n
		}
	}
	for lid, pr := range rm.LinkPrices {
		if pw, ok := fa.linkPrice[lid]; ok {
			pw.push(pr)
		}
	}
}

// announce sends the flow's rate for the given round to every peer node
// agent and the collector. The body is encoded once and the payload shared
// across all peer messages (receivers treat payloads as read-only).
// Lossy-transport failures (drops, partitions, full inboxes) are tolerated
// — resend chirps repair them in Sync mode, and Async mode never waits on
// one message; only a closed transport is fatal.
func (fa *flowAgent) announce(round int, rate float64, active bool) error {
	payload := rateMsg{Round: round, Flow: fa.flow, Rate: rate, Active: active}.appendBinary(nil)
	from := fa.ep.Name()
	for _, peer := range fa.peerNames {
		msg := transport.Message{From: from, To: peer, Kind: rateKind, Payload: payload}
		if err := fa.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
			return fmt.Errorf("dist: flow %d announce to %s: %w", fa.flow, peer, err)
		}
	}
	msg := transport.Message{From: from, To: collectorName, Kind: rateKind, Payload: payload}
	if err := fa.ep.Send(msg); errors.Is(err, transport.ErrClosed) {
		return err
	}
	return nil
}

// runStale is the Sync-mode round loop. It blocks until a Stop control
// or transport shutdown. The agent announces round t as soon as every
// peer's freshest report is at most `staleness` rounds behind (round t-1
// exactly when staleness is 0: the barrier schedule). Reports are
// absorbed with a strictly-newer guard so duplicate resends cannot skew
// the Section 3.5 price averages, and a resend timer re-announces the
// latest rate while stalled so dropped frames cannot deadlock the
// cluster. A Leave control makes the agent announce departure and idle; a
// later Join control resumes it at the cluster's next round (the cluster
// sends both only between Run invocations).
func (fa *flowAgent) runStale() {
	defer close(fa.done)
	reportRound := make(map[model.NodeID]int, len(fa.peerNodes))
	lastRound, lastRate := 0, 0.0
	backoff := fa.resend
	timer := time.NewTimer(fa.resend)
	defer timer.Stop()

	for {
		// Announce every round currently permitted by the staleness bound.
		announced := false
		for !fa.idle && fa.round <= fa.runUntil && fa.canAnnounce(reportRound) {
			rate := fa.computeRate()
			if err := fa.announce(fa.round, rate, true); err != nil {
				return
			}
			fa.recordProgress(fa.round, fa.observedLag(reportRound))
			lastRound, lastRate = fa.round, rate
			fa.round++
			announced = true
		}
		if announced {
			// Progress: push the resend deadline out so chirps fire only
			// after a genuine stall, not on a periodic schedule (a periodic
			// chirp from every agent of a large cluster is a message storm).
			backoff = fa.resend
			timer.Reset(backoff)
		}
		if fa.leaving {
			fa.leaving = false
			if !fa.idle {
				_ = fa.announce(fa.round, 0, false)
				fa.idle = true
			}
		}
		if fa.idle && fa.round <= fa.runUntil {
			fa.round = fa.runUntil + 1
		}

		select {
		case m, ok := <-fa.ep.Recv():
			if !ok {
				return
			}
			if !fa.handleStale(m, reportRound) {
				return
			}
		case <-timer.C:
			// Stalled: re-announce the freshest rate so peers (and the
			// collector) that lost the original frame can catch up. Repeated
			// stalls back off exponentially — when the whole cluster is slow
			// (not lossy), fixed-period chirps from every agent feed back
			// into the slowness.
			if lastRound > 0 && !fa.idle {
				if err := fa.announce(lastRound, lastRate, true); err != nil {
					return
				}
				fa.rec.record(EvResend, lastRound, int64(backoff), 0)
				fa.tel.ObserveChirp(true)
				fa.chirped = true
			}
			if backoff < 16*fa.resend {
				backoff *= 2
				fa.tel.ObserveBackoff(true)
			}
			timer.Reset(backoff)
		}
	}
}

// canAnnounce reports whether the staleness bound permits announcing
// fa.round: every peer node's freshest absorbed report must be no older
// than round-1-staleness. Round 1 is unconditional (there is nothing to
// be stale against).
func (fa *flowAgent) canAnnounce(reportRound map[model.NodeID]int) bool {
	if fa.round == 1 {
		return true
	}
	need := fa.round - 1 - fa.staleness
	if need < 1 {
		need = 1
	}
	for _, b := range fa.peerNodes {
		if reportRound[b] < need {
			return false
		}
	}
	return true
}

// handleStale processes one inbound message for the Sync loop,
// returning false on shutdown.
func (fa *flowAgent) handleStale(m transport.Message, reportRound map[model.NodeID]int) bool {
	switch m.Kind {
	case ctrlKind:
		cm, err := decodeCtrl(m)
		if err != nil {
			return true
		}
		if cm.Stop {
			return false
		}
		if cm.Leave && !fa.idle {
			fa.leaving = true
		}
		if cm.Join && fa.idle {
			fa.idle = false
			if fa.round <= fa.runUntil {
				fa.round = fa.runUntil + 1
			}
		}
		if cm.RunUntil > fa.runUntil {
			fa.runUntil = cm.RunUntil
		}
	case reportKind:
		rm, err := decodeReport(m)
		if err != nil {
			return true
		}
		// Strictly-newer guard: resent duplicates and out-of-order
		// stragglers must not push into the price windows twice. One
		// event per frame: absorb when accepted (an absorb implies the
		// receive), recv when rejected.
		if rm.Round > reportRound[rm.Node] {
			reportRound[rm.Node] = rm.Round
			fa.absorbReport(rm)
			fa.rec.record(EvAbsorb, rm.Round, int64(rm.Node), 0)
		} else {
			fa.rec.record(EvRecv, rm.Round, int64(rm.Node), 0)
		}
	}
	return true
}

// recordProgress logs one successful announce (the send plus the round
// advance) and credits a pending chirp with the repair: progress right
// after a chirp means the re-announce plausibly replaced a lost frame.
func (fa *flowAgent) recordProgress(round, lag int) {
	fa.rec.record(EvSend, round, int64(lag), int64(fa.peerCount))
	fa.rec.record(EvRound, round, 0, 0)
	if fa.chirped {
		fa.chirped = false
		fa.tel.ObserveRepair(true)
	}
}

// observedLag is the effective staleness of the inputs used for fa.round:
// the gap between the newest report the round could use (round-1) and the
// oldest peer report actually absorbed.
func (fa *flowAgent) observedLag(reportRound map[model.NodeID]int) int {
	if fa.round == 1 || fa.peerCount == 0 {
		return 0
	}
	oldest := fa.round
	for _, b := range fa.peerNodes {
		if r := reportRound[b]; r < oldest {
			oldest = r
		}
	}
	lag := fa.round - 1 - oldest
	if lag < 0 {
		lag = 0
	}
	return lag
}

// runAsync ticks on a timer, announcing rates computed from the latest
// absorbed reports.
func (fa *flowAgent) runAsync() {
	defer close(fa.done)
	ticker := time.NewTicker(fa.tickEvery)
	defer ticker.Stop()
	for {
		select {
		case m, ok := <-fa.ep.Recv():
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
				if cm.Leave && !fa.idle {
					_ = fa.announce(fa.round, 0, false)
					fa.idle = true
				}
				if cm.Join {
					fa.idle = false
				}
			case reportKind:
				rm, err := decodeReport(m)
				if err != nil {
					continue
				}
				fa.absorbReport(rm)
				fa.rec.record(EvAbsorb, rm.Round, int64(rm.Node), 0)
			}
		case <-ticker.C:
			if fa.idle {
				continue
			}
			if err := fa.announce(fa.round, fa.computeRate(), true); err != nil {
				return
			}
			fa.recordProgress(fa.round, 0)
			fa.round++
		}
	}
}
