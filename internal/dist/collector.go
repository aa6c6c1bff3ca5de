package dist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// collector aggregates rate announcements and node reports into a global
// view: per-round utilities in Sync mode, latest-state utility samples in
// Async mode.
type collector struct {
	p     *model.Problem
	ep    transport.Endpoint
	tel   *telemetry.DistMetrics
	rec   *recorder
	epoch time.Time

	// progress counts every absorbed message and lastFinal holds the
	// highest finalized round; the stall detector polls both without
	// taking mu.
	progress  atomic.Uint64
	lastFinal atomic.Int64

	mu sync.Mutex
	// latest state (both modes). deliveries[j] < 0 means "no per-class
	// delivery reported": the class receives at its flow's rate.
	rates      []float64
	consumers  []int
	deliveries []float64
	active     []bool
	// sync-mode round assembly. reportSeen tracks reporting nodes as a
	// set, not a count, so resent reports are deduplicated. activeCount
	// and roundGot (rates recorded per round from currently-active flows)
	// are maintained incrementally so the per-message completeness check
	// is O(1) — a full scan per message is what melts the collector on
	// thousand-agent clusters.
	roundRates  map[int]map[model.FlowID]float64
	roundPops   map[int]map[model.ClassID]int
	roundDel    map[int]map[model.ClassID]float64
	reportSeen  map[int]map[model.NodeID]bool
	activeCount int
	roundGot    map[int]int
	nodesTotal  int
	// Observability state: the frontier (freshest round seen in any
	// message), per-agent latest rounds (for the effective-staleness
	// scan at finalize; a node still at 0 never reports and is skipped),
	// and each pending round's first-input timestamp.
	frontier   int
	latestFlow []int
	latestNode []int
	roundFirst map[int]int64
	stats      []RoundStats
	// completed marks finalized rounds. Any fully-assembled round
	// finalizes on its own, and rounds whose frames were lost are simply
	// skipped. Inputs for a completed round (resends, late stragglers)
	// are dropped so they cannot recreate its per-round entries.
	completed map[int]bool
	waiters   []roundWaiter
	samples   int

	done chan struct{}
}

type roundWaiter struct {
	round int
	ch    chan struct{}
}

// newCollector builds the collector. nodesTotal must be the number of
// node agents that actually report each round: nodes reached by at least
// one flow or owning at least one link with flows (a node with neither
// never computes).
func newCollector(p *model.Problem, ep transport.Endpoint, nodesTotal int, tel *telemetry.DistMetrics, rec *recorder, epoch time.Time) *collector {
	c := &collector{
		p:           p,
		ep:          ep,
		tel:         tel,
		rec:         rec,
		epoch:       epoch,
		latestFlow:  make([]int, len(p.Flows)),
		latestNode:  make([]int, len(p.Nodes)),
		roundFirst:  make(map[int]int64),
		rates:       make([]float64, len(p.Flows)),
		consumers:   make([]int, len(p.Classes)),
		deliveries:  make([]float64, len(p.Classes)),
		active:      make([]bool, len(p.Flows)),
		roundRates:  make(map[int]map[model.FlowID]float64),
		roundPops:   make(map[int]map[model.ClassID]int),
		roundDel:    make(map[int]map[model.ClassID]float64),
		reportSeen:  make(map[int]map[model.NodeID]bool),
		roundGot:    make(map[int]int),
		activeCount: len(p.Flows),
		nodesTotal:  nodesTotal,
		completed:   make(map[int]bool),
		done:        make(chan struct{}),
	}
	for i := range c.active {
		c.active[i] = true
	}
	for j := range c.deliveries {
		c.deliveries[j] = -1
	}
	return c
}

func (c *collector) run() {
	defer close(c.done)
	for m := range c.ep.Recv() {
		if !c.handle(m) {
			return
		}
	}
}

// handle dispatches one message (or, for batch frames, each inner
// message), returning false on Stop.
func (c *collector) handle(m transport.Message) bool {
	switch m.Kind {
	case batchKind:
		inner, err := decodeBatch(m.Payload)
		if err != nil {
			return true
		}
		for _, im := range inner {
			if !c.handle(im) {
				return false
			}
		}
	case ctrlKind:
		cm, err := decodeCtrl(m)
		if err != nil {
			return true
		}
		if cm.Stop {
			return false
		}
	case rateKind:
		rm, err := decodeRate(m)
		if err != nil {
			return true
		}
		c.absorbRate(rm)
	case reportKind:
		rm, err := decodeReport(m)
		if err != nil {
			return true
		}
		c.absorbReport(rm)
	}
	return true
}

// touchRoundLocked maintains the frontier, the per-flow/node latest
// rounds, and a pending round's first-input timestamp.
func (c *collector) touchRoundLocked(round int) {
	if round > c.frontier {
		c.frontier = round
	}
	if _, ok := c.roundFirst[round]; !ok {
		c.roundFirst[round] = int64(time.Since(c.epoch))
	}
}

func (c *collector) absorbRate(rm rateMsg) {
	c.progress.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if rm.Round > c.latestFlow[rm.Flow] {
		c.latestFlow[rm.Flow] = rm.Round
	}
	if c.completed[rm.Round] {
		return
	}
	c.touchRoundLocked(rm.Round)
	if !rm.Active {
		if c.active[rm.Flow] {
			c.active[rm.Flow] = false
			c.activeCount--
			c.recountPendingLocked()
		}
		c.rates[rm.Flow] = 0
		for j := range c.p.Classes {
			if c.p.Classes[j].Flow == rm.Flow {
				c.consumers[j] = 0
			}
		}
		c.completeRoundsLocked(rm.Round)
		return
	}
	if !c.active[rm.Flow] { // a rejoining flow becomes active again
		c.active[rm.Flow] = true
		c.activeCount++
		c.recountPendingLocked()
	}
	c.rates[rm.Flow] = rm.Rate
	if c.roundRates[rm.Round] == nil {
		c.roundRates[rm.Round] = make(map[model.FlowID]float64)
	}
	if _, seen := c.roundRates[rm.Round][rm.Flow]; !seen {
		c.roundGot[rm.Round]++
	}
	c.roundRates[rm.Round][rm.Flow] = rm.Rate
	c.completeRoundsLocked(rm.Round)
}

// recountPendingLocked rebuilds the per-round active-rate counters after a
// flow's activity flips. Departures and rejoins are rare control events, so
// the full recount stays off the hot path.
func (c *collector) recountPendingLocked() {
	for round, rates := range c.roundRates {
		got := 0
		for i := range rates {
			if c.active[i] {
				got++
			}
		}
		c.roundGot[round] = got
	}
}

func (c *collector) absorbReport(rm reportMsg) {
	c.progress.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if rm.Round > c.latestNode[rm.Node] {
		c.latestNode[rm.Node] = rm.Round
	}
	if c.completed[rm.Round] {
		return
	}
	c.touchRoundLocked(rm.Round)
	for cid, n := range rm.Populations {
		c.consumers[cid] = n
	}
	if c.roundPops[rm.Round] == nil {
		c.roundPops[rm.Round] = make(map[model.ClassID]int)
	}
	for cid, n := range rm.Populations {
		c.roundPops[rm.Round][cid] = n
	}
	if len(rm.Deliveries) > 0 {
		if c.roundDel[rm.Round] == nil {
			c.roundDel[rm.Round] = make(map[model.ClassID]float64)
		}
		for cid, d := range rm.Deliveries {
			c.deliveries[cid] = d
			c.roundDel[rm.Round][cid] = d
		}
	}
	if c.reportSeen[rm.Round] == nil {
		c.reportSeen[rm.Round] = make(map[model.NodeID]bool)
	}
	c.reportSeen[rm.Round][rm.Node] = true
	c.completeRoundsLocked(rm.Round)
}

// completeRoundsLocked finalizes the round just touched if its full input
// set has arrived. Rounds finalize independently, since earlier rounds
// may never assemble over a lossy transport.
func (c *collector) completeRoundsLocked(touched int) {
	if !c.completed[touched] && c.finalizeLocked(touched) {
		c.completed[touched] = true
	}
}

// finalizeLocked checks completeness of one round and, if complete,
// computes its utility, appends stats, and wakes waiters. It reports
// whether the round was finalized.
func (c *collector) finalizeLocked(round int) bool {
	if c.activeCount == 0 {
		return false
	}
	if c.roundGot[round] < c.activeCount || len(c.reportSeen[round]) < c.nodesTotal {
		return false
	}

	// Utility of the completed round, from the round's own rates,
	// populations and (in multirate mode) per-class deliveries; inactive
	// flows contribute nothing.
	util := 0.0
	rates := c.roundRates[round]
	pops := c.roundPops[round]
	dels := c.roundDel[round]
	for j := range c.p.Classes {
		cl := &c.p.Classes[j]
		n, ok := pops[model.ClassID(j)]
		if !ok || n == 0 || !c.active[cl.Flow] {
			continue
		}
		rate := rates[cl.Flow]
		if d, ok := dels[model.ClassID(j)]; ok {
			rate = d
		}
		util += float64(n) * cl.Utility.Value(rate)
	}
	c.stats = append(c.stats, RoundStats{Round: round, Utility: util})

	// Observability: effective staleness (frontier minus the slowest
	// active agent), finalize lag, and the round's assembly time. The
	// O(flows+nodes) slowest-agent scan runs once per finalized round,
	// not per message, so it stays off the absorb hot path.
	c.lastFinal.Store(int64(round))
	if c.tel != nil || c.rec != nil {
		slowest := c.frontier
		for i, r := range c.latestFlow {
			if c.active[i] && r < slowest {
				slowest = r
			}
		}
		for _, r := range c.latestNode {
			if r > 0 && r < slowest { // nodes at 0 never report (silent)
				slowest = r
			}
		}
		assembly := int64(time.Since(c.epoch)) - c.roundFirst[round]
		c.tel.ObserveFinalize(c.frontier-slowest, c.frontier-round, assembly)
		c.rec.record(EvRound, round, int64(c.frontier-slowest), assembly)
	}
	delete(c.roundFirst, round)
	delete(c.roundRates, round)
	delete(c.roundPops, round)
	delete(c.roundDel, round)
	delete(c.reportSeen, round)
	delete(c.roundGot, round)

	// A waiter is released when its own round finalizes; earlier rounds
	// may never assemble.
	var still []roundWaiter
	for _, w := range c.waiters {
		if w.round == round {
			close(w.ch)
		} else {
			still = append(still, w)
		}
	}
	c.waiters = still
	return true
}

// waitRound blocks until the given round has been finalized.
func (c *collector) waitRound(round int, timeout time.Duration) error {
	c.mu.Lock()
	if c.completed[round] {
		c.mu.Unlock()
		return nil
	}
	w := roundWaiter{round: round, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-c.done:
		return fmt.Errorf("dist: collector stopped before round %d", round)
	case <-time.After(timeout):
		return fmt.Errorf("dist: timeout waiting for round %d", round)
	}
}

// rounds returns the finalized stats for rounds [from, to], in round
// order. Rounds whose frames were lost are absent.
func (c *collector) rounds(from, to int) []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []RoundStats
	for _, s := range c.stats {
		if s.Round >= from && s.Round <= to {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b RoundStats) int { return a.Round - b.Round })
	return out
}

// sample computes utility from the latest absorbed state (Async mode).
func (c *collector) sample() RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	util := 0.0
	for j := range c.p.Classes {
		cl := &c.p.Classes[j]
		n := c.consumers[j]
		if n == 0 || !c.active[cl.Flow] {
			continue
		}
		rate := c.rates[cl.Flow]
		if c.deliveries[j] >= 0 {
			rate = c.deliveries[j]
		}
		util += float64(n) * cl.Utility.Value(rate)
	}
	c.samples++
	return RoundStats{Round: c.samples, Utility: util}
}

// allocation snapshots the latest global allocation.
func (c *collector) allocation() model.Allocation {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := model.Allocation{
		Rates:     make([]float64, len(c.rates)),
		Consumers: make([]int, len(c.consumers)),
	}
	copy(a.Rates, c.rates)
	copy(a.Consumers, c.consumers)
	return a
}
