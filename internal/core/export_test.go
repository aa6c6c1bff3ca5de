package core

import "repro/internal/model"

// SweepAll makes every node and link live again, so Step visits every
// constraint as an engine without parking would: the reference the
// parked-constraint tests compare whole StepResults against. Call it right
// after NewEngine or ResetRouting, before the next Step.
func (e *Engine) SweepAll() {
	for b := range e.nodeLive {
		e.nodeLive[b], e.nodeForced[b] = true, true
	}
	for l := range e.linkLive {
		e.linkLive[l], e.linkForced[l] = true, true
	}
	e.liveNodes, e.liveLinks = iota32(len(e.nodeLive)), iota32(len(e.linkLive))
	e.plan = newStagePlan(e.ix, e.flowIDs, e.liveNodes, e.liveLinks, e.shards)
}

// NodeParked reports whether Step currently leaves node b out as parked.
func (e *Engine) NodeParked(b model.NodeID) bool { return !e.nodeLive[b] }

// Parked returns how many nodes and links Step currently leaves out.
func (e *Engine) Parked() (nodes, links int) {
	return len(e.nodeLive) - len(e.liveNodes), len(e.linkLive) - len(e.liveLinks)
}
