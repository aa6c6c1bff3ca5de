package dist

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/model"
)

// RoundSummary aggregates one round's events across all agents: how much
// traffic the round generated, how many stall chirps re-announced it (the
// loss/repair proxy — agents chirp a round exactly when its frames failed
// to make progress), and the wall-time window it was live.
type RoundSummary struct {
	Round int
	// Sends counts announces/reports sent for this round; Recvs the
	// frames received tagged with it (absorbed or rejected); Resends the
	// stall chirps re-announcing it.
	Sends   int
	Recvs   int
	Resends int
	// FirstNanos and LastNanos bound the round's event window.
	FirstNanos int64
	LastNanos  int64
}

// AgentSummary ranks one flow/node agent's progress against its
// communicating component's frontier (the agents it exchanges messages
// with, discovered from the log's recv edges — round numbers are not
// causally comparable across disconnected subgraphs).
type AgentSummary struct {
	Agent string
	// FirstRound and LastRound are the agent's observed round-advance
	// range (FirstRound > 1 means its ring wrapped).
	FirstRound int
	LastRound  int
	// Chirps counts the agent's stall re-announces.
	Chirps int
	// MaxLag is the worst observed frontier-minus-agent round gap.
	MaxLag int
	// BehindNanos integrates max(0, lag-1) over the agent's observed
	// window: time spent more than one round behind the frontier (one
	// round behind is normal pipeline skew). It measures the symptom:
	// agents that wait on a straggler build up lag too.
	BehindNanos int64
	// BlameNanos is the critical-path wait charged to this agent for
	// being cut off: every round advance's wait is followed along the
	// wait-for chain (the last input absorbed before the advance names
	// the blocker) to its root, and a root where the agent chirped but
	// was neither heard nor hearing is charged to it. The straggler
	// score: a partitioned agent stalls its whole component, so its lag
	// against that component's frontier stays small, but every wait in
	// the component roots at it.
	BlameNanos int64
}

// Analysis is the merged cross-agent view of one event log.
type Analysis struct {
	// MaxRound is the highest round any agent completed; SpanNanos the
	// full event window.
	MaxRound  int
	SpanNanos int64
	// Rounds is the per-round timeline in round order.
	Rounds []RoundSummary
	// Agents is every flow/node agent, most-straggling first
	// (BlameNanos descending, then BehindNanos, then chirps).
	Agents []AgentSummary
	// StalenessDist histograms the observed input lag at each send: how
	// stale the inputs actually used were, in rounds (the effective
	// staleness distribution, bounded by Config.Staleness).
	StalenessDist map[int]int
	// TotalResends and Stalls aggregate chirps and stall-detector trips.
	TotalResends int
	Stalls       int
}

// frontierStep is one increase of a component's completed-round maximum,
// or one agent's round advance (seq then orders it among the agent's own
// events, which the coarse recorder clock can give equal timestamps).
type frontierStep struct {
	nanos int64
	seq   uint64
	round int
}

// unionFind groups agents into communicating components from the recv
// edges in the log. Round numbers are causally comparable only between
// agents that exchange messages; judging an agent against a global
// frontier would let an unrelated fast subgraph mislabel a whole slow
// component as stragglers.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		u.parent[x] = x
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// agentTrack is one agent's raw progress timeline.
type agentTrack struct {
	firstNanos int64
	lastNanos  int64
	advances   []frontierStep // (nanos, completed round), ascending
	roundAt    map[int]int    // round -> index of its advance
	absorbs    []inbound      // accepted frames, ascending
	heard      []int64        // frames in or out (connectivity), ascending
	inAt       []int64        // frames it received, ascending
	chirpAt    []int64        // stall re-announces, ascending
	peers      []*agentTrack  // agents it exchanged frames with
	blame      int64
}

// inbound is one frame an agent absorbed: when, from whom, which round.
type inbound struct {
	nanos int64
	seq   uint64
	from  string
	round int
}

// Analyze merges a flight-recorder event log into the per-round timeline
// and straggler ranking. Rings that wrapped are handled conservatively:
// each agent is only judged over the window its events cover.
func Analyze(recs []EventRecord) *Analysis {
	a := &Analysis{StalenessDist: make(map[int]int)}
	if len(recs) == 0 {
		return a
	}
	sorted := make([]EventRecord, len(recs))
	copy(sorted, recs)
	slices.SortFunc(sorted, func(x, y EventRecord) int {
		if x.Nanos != y.Nanos {
			if x.Nanos < y.Nanos {
				return -1
			}
			return 1
		}
		if c := strings.Compare(x.Agent, y.Agent); c != 0 {
			return c
		}
		return cmp.Compare(x.Seq, y.Seq)
	})

	rounds := make(map[int]*RoundSummary)
	touchRound := func(r int, nanos int64) *RoundSummary {
		rs, ok := rounds[r]
		if !ok {
			rs = &RoundSummary{Round: r, FirstNanos: nanos, LastNanos: nanos}
			rounds[r] = rs
		}
		if nanos < rs.FirstNanos {
			rs.FirstNanos = nanos
		}
		if nanos > rs.LastNanos {
			rs.LastNanos = nanos
		}
		return rs
	}

	tracks := make(map[string]*agentTrack)
	isAgent := func(name string) bool {
		return strings.HasPrefix(name, "flow/") || strings.HasPrefix(name, "node/")
	}
	// peerOf names the sender of a recv event: flows hear from nodes
	// (A = node id), nodes hear from flows (A = flow id).
	peerOf := func(rec EventRecord) string {
		if strings.HasPrefix(rec.Agent, "flow/") {
			return nodeName(model.NodeID(rec.A))
		}
		return flowName(model.FlowID(rec.A))
	}
	comps := newUnionFind()
	// heard holds, per agent, the times it received any frame or any
	// frame from it was received: its connectivity evidence. links are
	// the agent pairs that exchanged frames.
	heard := make(map[string][]int64)
	links := make(map[[2]string]bool)
	endNanos := sorted[len(sorted)-1].Nanos

	for _, rec := range sorted {
		if isAgent(rec.Agent) {
			tr, ok := tracks[rec.Agent]
			if !ok {
				tr = &agentTrack{firstNanos: rec.Nanos, roundAt: make(map[int]int)}
				tracks[rec.Agent] = tr
			}
			tr.lastNanos = rec.Nanos
		}
		switch parseEventType(rec.Ev) {
		case EvSend:
			rs := touchRound(rec.Round, rec.Nanos)
			rs.Sends++
			a.StalenessDist[int(rec.A)]++
		case EvRecv, EvAbsorb:
			// recv and absorb are mutually exclusive per frame; both
			// count as a received frame for the round.
			touchRound(rec.Round, rec.Nanos).Recvs++
			if isAgent(rec.Agent) {
				peer := peerOf(rec)
				comps.union(rec.Agent, peer)
				heard[rec.Agent] = append(heard[rec.Agent], rec.Nanos)
				heard[peer] = append(heard[peer], rec.Nanos)
				links[[2]string{min(rec.Agent, peer), max(rec.Agent, peer)}] = true
				tr := tracks[rec.Agent]
				tr.inAt = append(tr.inAt, rec.Nanos)
				if parseEventType(rec.Ev) == EvAbsorb {
					tr.absorbs = append(tr.absorbs, inbound{nanos: rec.Nanos, seq: rec.Seq, from: peer, round: rec.Round})
				}
			}
		case EvResend:
			rs := touchRound(rec.Round, rec.Nanos)
			rs.Resends++
			a.TotalResends++
			if tr := tracks[rec.Agent]; tr != nil {
				tr.chirpAt = append(tr.chirpAt, rec.Nanos)
			}
		case EvRound:
			touchRound(rec.Round, rec.Nanos)
			if rec.Round > a.MaxRound {
				a.MaxRound = rec.Round
			}
			if tr := tracks[rec.Agent]; tr != nil {
				if _, seen := tr.roundAt[rec.Round]; !seen {
					tr.roundAt[rec.Round] = len(tr.advances)
				}
				tr.advances = append(tr.advances, frontierStep{nanos: rec.Nanos, seq: rec.Seq, round: rec.Round})
			}
		case EvStall:
			a.Stalls++
		}
	}
	a.SpanNanos = endNanos - sorted[0].Nanos

	// Per-component frontiers: the running maximum of completed rounds
	// within each communicating component, as compact step functions (at
	// most MaxRound entries each).
	frontiers := make(map[string][]frontierStep)
	maxSeen := make(map[string]int)
	for _, rec := range sorted {
		if parseEventType(rec.Ev) != EvRound || !isAgent(rec.Agent) {
			continue
		}
		root := comps.find(rec.Agent)
		if rec.Round > maxSeen[root] {
			maxSeen[root] = rec.Round
			frontiers[root] = append(frontiers[root], frontierStep{nanos: rec.Nanos, round: rec.Round})
		}
	}

	for name, tr := range tracks {
		tr.heard = heard[name]
	}
	for l := range links {
		if x, y := tracks[l[0]], tracks[l[1]]; x != nil && y != nil {
			x.peers = append(x.peers, y)
			y.peers = append(y.peers, x)
		}
	}
	blameWaits(tracks)
	for name, tr := range tracks {
		s := summarizeAgent(name, tr, frontiers[comps.find(name)], endNanos)
		s.BlameNanos = tr.blame
		a.Agents = append(a.Agents, s)
	}
	slices.SortFunc(a.Agents, func(x, y AgentSummary) int {
		if x.BlameNanos != y.BlameNanos {
			if x.BlameNanos > y.BlameNanos {
				return -1
			}
			return 1
		}
		if x.BehindNanos != y.BehindNanos {
			if x.BehindNanos > y.BehindNanos {
				return -1
			}
			return 1
		}
		if x.Chirps != y.Chirps {
			return y.Chirps - x.Chirps
		}
		return strings.Compare(x.Agent, y.Agent)
	})

	for _, rs := range rounds {
		a.Rounds = append(a.Rounds, *rs)
	}
	slices.SortFunc(a.Rounds, func(x, y RoundSummary) int { return x.Round - y.Round })
	return a
}

// summarizeAgent integrates one agent's lag behind its component frontier
// over its observed window. Before an agent's first recorded advance its
// completed round is taken as (first advance - 1): exact when the ring
// covers the whole run, conservative when it wrapped. An agent whose ring
// holds no advances at all cannot be judged and scores zero rather than
// being mistaken for a maximal straggler.
func summarizeAgent(name string, tr *agentTrack, frontier []frontierStep, endNanos int64) AgentSummary {
	s := AgentSummary{Agent: name, Chirps: len(tr.chirpAt)}
	if len(tr.advances) == 0 {
		return s
	}
	s.FirstRound = tr.advances[0].round
	s.LastRound = tr.advances[len(tr.advances)-1].round

	completed := s.FirstRound - 1
	if completed < 0 {
		completed = 0
	}
	fi := 0 // next frontier step
	front := 0
	ai := 0
	t := tr.firstNanos
	// Catch the frontier up to the start of the agent's window.
	for fi < len(frontier) && frontier[fi].nanos <= t {
		front = frontier[fi].round
		fi++
	}
	for t < endNanos {
		// Next state change: a frontier step or this agent's advance.
		next := endNanos
		if fi < len(frontier) && frontier[fi].nanos < next {
			next = frontier[fi].nanos
		}
		if ai < len(tr.advances) && tr.advances[ai].nanos < next {
			next = tr.advances[ai].nanos
		}
		lag := front - completed
		if lag > s.MaxLag {
			s.MaxLag = lag
		}
		if lag > 1 {
			s.BehindNanos += int64(lag-1) * (next - t)
		}
		t = next
		for fi < len(frontier) && frontier[fi].nanos <= t {
			front = frontier[fi].round
			fi++
		}
		for ai < len(tr.advances) && tr.advances[ai].nanos <= t {
			completed = tr.advances[ai].round
			ai++
		}
	}
	return s
}

// maxBlameHops bounds one wait-for chain. Chains follow strictly earlier
// sends, so real logs end long before this; it is a backstop for logs
// whose sequence numbers do not order an agent's events.
const maxBlameHops = 1024

// blameSpan is a wait interval [lo, hi] of agent tr that ends at or
// before its advance adv, still to be charged to a root cause.
type blameSpan struct {
	tr     *agentTrack
	adv    int
	lo, hi int64
	hops   int
}

// blameWaits charges every round advance's wait to its root cause, in the
// spirit of critical-path attribution in Dapper (Sigelman et al., 2010).
// The wait before an agent's advance splits at the last input it absorbed
// (the blocker: the staleness loop re-checks its bound after every
// frame, so that frame is the one that released it):
//   - until the blocker's sender produced that round, the wait is the
//     sender's own lateness, and is followed into the sender's wait;
//   - from production to absorption the frame was in transit.
//
// A transit, or a wait with no absorbed input at all, is charged to an
// endpoint that was cut off over it (see cutOff); both endpoints cut off
// share it. Anything else is charged to no one: an ordinary lost frame
// that a chirp repaired is the network's, and an agent that simply got no
// CPU is the host's. A partitioned agent is cut off for the whole
// partition, so every wait in its component roots at it.
func blameWaits(tracks map[string]*agentTrack) {
	var stack []blameSpan
	for _, tr := range tracks {
		for k := 1; k < len(tr.advances); k++ {
			stack = append(stack[:0], blameSpan{tr: tr, adv: k, lo: tr.advances[k-1].nanos, hi: tr.advances[k].nanos})
			for len(stack) > 0 {
				sp := stack[len(stack)-1]
				stack = blameStep(sp, stack[:len(stack)-1], tracks)
			}
		}
	}
}

// blameStep charges what it can of one span and pushes the rest.
func blameStep(sp blameSpan, stack []blameSpan, tracks map[string]*agentTrack) []blameSpan {
	tr, lo, hi := sp.tr, sp.lo, sp.hi
	if hi <= lo || sp.hops >= maxBlameHops {
		return stack
	}
	// Before its previous advance the agent was still producing earlier
	// rounds: that part belongs to the earlier wait.
	if sp.adv > 0 {
		if w := tr.advances[sp.adv-1].nanos; lo < w {
			stack = append(stack, blameSpan{tr: tr, adv: sp.adv - 1, lo: lo, hi: min(hi, w), hops: sp.hops + 1})
			if lo = w; lo >= hi {
				return stack
			}
		}
	}
	// The blocker is the last frame absorbed before the advance, in the
	// agent's own event order: the recorder clock is coarse, so frames
	// absorbed just after the advance can share its timestamp.
	i, _ := slices.BinarySearchFunc(tr.absorbs, tr.advances[sp.adv].seq, func(in inbound, seq uint64) int {
		if in.seq < seq {
			return -1
		}
		return 1
	})
	if i == 0 || (sp.adv > 0 && tr.absorbs[i-1].seq < tr.advances[sp.adv-1].seq) {
		chargeCutOff(tr, nil, lo, hi) // advanced without new input
		return stack
	}
	blk := tr.absorbs[i-1]
	arrived := min(max(blk.nanos, lo), hi)
	produced := lo // sender's advance not in the log (ring wrapped): all transit
	src := tracks[blk.from]
	if src != nil {
		if j, ok := src.roundAt[blk.round]; ok {
			produced = min(max(src.advances[j].nanos, lo), arrived)
			if produced > lo {
				stack = append(stack, blameSpan{tr: src, adv: j, lo: lo, hi: produced, hops: sp.hops + 1})
			}
		}
	}
	chargeCutOff(tr, src, produced, arrived)
	return stack
}

// chargeCutOff charges [u, v] to whichever of a and b (b may be nil) was
// cut off over it, splitting it when both were.
func chargeCutOff(a, b *agentTrack, u, v int64) {
	if v <= u {
		return
	}
	aCut, bCut := a.cutOff(u, v), b != nil && b.cutOff(u, v)
	switch {
	case aCut && bCut:
		a.blame += (v - u) / 2
		b.blame += v - u - (v-u)/2
	case aCut:
		a.blame += v - u
	case bCut:
		b.blame += v - u
	}
}

// cutOff reports whether the agent was cut off over [u, v]: for at least
// half of it, a silence (no frame in or out) during which its chirps went
// unheard. Starvation is not a cut-off: an agent the scheduler does not
// run records nothing, and peers that do not run hear nothing either.
func (tr *agentTrack) cutOff(u, v int64) bool {
	i, _ := slices.BinarySearch(tr.heard, u+1)
	prev := u
	for {
		next := v
		if i < len(tr.heard) && tr.heard[i] < v {
			next = tr.heard[i]
		}
		if 2*(next-prev) >= v-u && tr.unheardChirps(prev, next) {
			return true
		}
		if next == v {
			return false
		}
		prev = next
		i++
	}
}

// unheardChirps reports whether the agent chirped at least twice inside
// the silence (from, to) while a peer, which every chirp is sent to, kept
// receiving frames after the second one. Inboxes are FIFO, so that peer
// would have received both chirps first had they arrived: they were lost.
// One lost chirp is ordinary loss; two in a row while the peer hears
// others is a cut-off.
func (tr *agentTrack) unheardChirps(from, to int64) bool {
	c, _ := slices.BinarySearch(tr.chirpAt, from+1)
	if c+1 >= len(tr.chirpAt) || tr.chirpAt[c+1] >= to {
		return false
	}
	second := tr.chirpAt[c+1]
	for _, p := range tr.peers {
		if j, _ := slices.BinarySearch(p.inAt, second+1); j < len(p.inAt) && p.inAt[j] < to {
			return true
		}
	}
	return false
}
