// Package dist runs LRGP as a distributed system: one agent per flow
// source (Algorithm 1) and one agent per node (Algorithms 2 and 3, plus
// link-price computation for the links it owns), exchanging messages over a
// transport.Network. A collector endpoint aggregates per-round state so
// callers can observe the global utility the same way the paper's
// simulations do.
//
// Two execution modes are provided:
//
//   - Synchronous (the paper's main formulation): agents proceed in
//     numbered rounds. With Staleness 0 each waits for the full set of
//     round-t inputs before computing round t (or t+1) outputs; with
//     Staleness K it may use inputs up to K rounds old.
//   - Asynchronous (Section 3.5): agents run on independent tickers using
//     the latest values received, with flow sources averaging the last few
//     prices from each resource to tolerate missing or stale updates.
package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
	"repro/internal/transport"
)

// Endpoint naming scheme.
const (
	collectorName = "collector"
	ctrlKind      = "ctrl"
	rateKind      = "rate"
	reportKind    = "report"
	// batchKind tags a frame whose payload is a batch of whole messages
	// (see gateway.go); receivers demux and handle each inner message.
	batchKind = "batch"
)

func hostName(k int) string {
	return "host/" + itoa(k)
}

func flowName(i model.FlowID) string {
	return "flow/" + itoa(int(i))
}

func nodeName(b model.NodeID) string {
	return "node/" + itoa(int(b))
}

func itoa(v int) string {
	// Tiny strconv.Itoa clone to keep the hot path allocation-free for
	// small ids is unnecessary; use the simple formulation.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// rateMsg announces a flow's rate for one round (flow agent -> node agents
// and collector).
type rateMsg struct {
	Round int
	Flow  model.FlowID
	Rate  float64
	// Active false announces the flow's departure: this is the flow's
	// final message, and receivers must stop expecting it afterwards.
	Active bool
}

// reportMsg carries a node's consumer allocation and prices for one round
// (node agent -> flow agents and collector).
type reportMsg struct {
	Round int
	Node  model.NodeID
	Price float64
	// Populations holds n_j for the classes attached at this node.
	Populations map[model.ClassID]int
	// Deliveries holds d_j for the classes attached at this node
	// (multirate mode only; absent in single-rate mode, where d_j = r_i).
	Deliveries map[model.ClassID]float64
	// LinkPrices holds the prices of the links this node owns (links
	// whose To endpoint is this node).
	LinkPrices map[model.LinkID]float64
	// Used and BestBC expose the Equation 12 inputs for observability.
	Used   float64
	BestBC float64
}

// ctrlMsg drives agents from the cluster.
type ctrlMsg struct {
	// RunUntil lets a synchronous flow agent advance up to (and
	// including) the given round, then pause.
	RunUntil int
	// Leave tells a flow agent to announce departure and idle (it can
	// rejoin later).
	Leave bool
	// Join tells an idled flow agent to re-announce itself and resume.
	Join bool
	// Stop tells any agent to exit immediately.
	Stop bool
}

// Payload encoding. Every dist payload opens with a type tag below,
// followed by uvarints for ids/rounds/counts and fixed 8-byte floats
// (transport.AppendFloat64). Encoding is pure appends: callers passing a
// reusable buffer get a 0 alloc/op steady state.
const (
	rateTag   = 0x01
	reportTag = 0x02
	ctrlTag   = 0x03
)

func (rm rateMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, rateTag)
	dst = binary.AppendUvarint(dst, uint64(rm.Round))
	dst = binary.AppendUvarint(dst, uint64(rm.Flow))
	dst = transport.AppendFloat64(dst, rm.Rate)
	if rm.Active {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeRate(m transport.Message) (rateMsg, error) {
	var rm rateMsg
	c := transport.Cursor{Data: m.Payload}
	if tag := c.Byte(); tag != rateTag && c.Err() == nil {
		return rm, fmt.Errorf("%w: rate tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	rm.Round = c.Int()
	rm.Flow = model.FlowID(c.Int())
	rm.Rate = c.Float64()
	rm.Active = c.Byte() != 0
	if err := c.Err(); err != nil {
		return rateMsg{}, err
	}
	if c.Rest() != 0 {
		return rateMsg{}, fmt.Errorf("%w: %d trailing bytes after rate", transport.ErrCorruptFrame, c.Rest())
	}
	return rm, nil
}

func (rm reportMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, reportTag)
	dst = binary.AppendUvarint(dst, uint64(rm.Round))
	dst = binary.AppendUvarint(dst, uint64(rm.Node))
	dst = transport.AppendFloat64(dst, rm.Price)
	dst = transport.AppendFloat64(dst, rm.Used)
	dst = transport.AppendFloat64(dst, rm.BestBC)
	dst = binary.AppendUvarint(dst, uint64(len(rm.Populations)))
	for cid, n := range rm.Populations {
		dst = binary.AppendUvarint(dst, uint64(cid))
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rm.Deliveries)))
	for cid, d := range rm.Deliveries {
		dst = binary.AppendUvarint(dst, uint64(cid))
		dst = transport.AppendFloat64(dst, d)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rm.LinkPrices)))
	for lid, pr := range rm.LinkPrices {
		dst = binary.AppendUvarint(dst, uint64(lid))
		dst = transport.AppendFloat64(dst, pr)
	}
	return dst
}

func decodeReport(m transport.Message) (reportMsg, error) {
	var rm reportMsg
	c := transport.Cursor{Data: m.Payload}
	if tag := c.Byte(); tag != reportTag && c.Err() == nil {
		return rm, fmt.Errorf("%w: report tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	rm.Round = c.Int()
	rm.Node = model.NodeID(c.Int())
	rm.Price = c.Float64()
	rm.Used = c.Float64()
	rm.BestBC = c.Float64()
	// Count-0 sections decode to nil maps, so an encoded nil or empty
	// map round-trips to nil. Counts are bounded by the remaining payload
	// size (each entry is at least 2 bytes) before allocating.
	if n := c.Int(); n > 0 && c.Err() == nil {
		if n > c.Rest()/2 {
			return reportMsg{}, fmt.Errorf("%w: population count %d", transport.ErrCorruptFrame, n)
		}
		rm.Populations = make(map[model.ClassID]int, n)
		for k := 0; k < n && c.Err() == nil; k++ {
			cid := model.ClassID(c.Int())
			rm.Populations[cid] = c.Int()
		}
	}
	if n := c.Int(); n > 0 && c.Err() == nil {
		if n > c.Rest()/2 {
			return reportMsg{}, fmt.Errorf("%w: delivery count %d", transport.ErrCorruptFrame, n)
		}
		rm.Deliveries = make(map[model.ClassID]float64, n)
		for k := 0; k < n && c.Err() == nil; k++ {
			cid := model.ClassID(c.Int())
			rm.Deliveries[cid] = c.Float64()
		}
	}
	if n := c.Int(); n > 0 && c.Err() == nil {
		if n > c.Rest()/2 {
			return reportMsg{}, fmt.Errorf("%w: link price count %d", transport.ErrCorruptFrame, n)
		}
		rm.LinkPrices = make(map[model.LinkID]float64, n)
		for k := 0; k < n && c.Err() == nil; k++ {
			lid := model.LinkID(c.Int())
			rm.LinkPrices[lid] = c.Float64()
		}
	}
	if err := c.Err(); err != nil {
		return reportMsg{}, err
	}
	if c.Rest() != 0 {
		return reportMsg{}, fmt.Errorf("%w: %d trailing bytes after report", transport.ErrCorruptFrame, c.Rest())
	}
	return rm, nil
}

func (cm ctrlMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, ctrlTag)
	dst = binary.AppendUvarint(dst, uint64(cm.RunUntil))
	var flags byte
	if cm.Leave {
		flags |= 1
	}
	if cm.Join {
		flags |= 2
	}
	if cm.Stop {
		flags |= 4
	}
	return append(dst, flags)
}

func decodeCtrl(m transport.Message) (ctrlMsg, error) {
	var cm ctrlMsg
	c := transport.Cursor{Data: m.Payload}
	if tag := c.Byte(); tag != ctrlTag && c.Err() == nil {
		return cm, fmt.Errorf("%w: ctrl tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	cm.RunUntil = c.Int()
	flags := c.Byte()
	cm.Leave = flags&1 != 0
	cm.Join = flags&2 != 0
	cm.Stop = flags&4 != 0
	if err := c.Err(); err != nil {
		return ctrlMsg{}, err
	}
	if c.Rest() != 0 {
		return ctrlMsg{}, fmt.Errorf("%w: %d trailing bytes after ctrl", transport.ErrCorruptFrame, c.Rest())
	}
	return cm, nil
}
