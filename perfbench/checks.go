package main

import (
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/model"
)

// deliveryCounter counts handler invocations per class, the consumers'
// own view of what the broker delivered.
type deliveryCounter []atomic.Uint64

// handler returns the counting handler for one consumer of class j.
func (c deliveryCounter) handler(j model.ClassID) broker.Handler {
	return func(broker.Message) { c[j].Add(1) }
}

func (c deliveryCounter) total() uint64 {
	var n uint64
	for j := range c {
		n += c[j].Load()
	}
	return n
}

// checkDeliveries compares the handler counts with the broker's
// ClassStats.Delivered deltas since base. Call it only while no publish
// is in flight.
func checkDeliveries(h *harness, b *broker.Broker, c deliveryCounter, base []broker.ClassStats) {
	now := b.AllClassStats(nil)
	bad := 0
	for j := range now {
		got := c[j].Load()
		want := now[j].Delivered - base[j].Delivered
		if got != want {
			if bad == 0 {
				h.fail("class %d: handlers counted %d deliveries, ClassStats.Delivered moved by %d", j, got, want)
			} else {
				h.failed++
			}
			bad++
		}
	}
}

// checkAdmitted verifies that every class's admitted count equals the
// enacted allocation capped by its attached consumers.
func checkAdmitted(h *harness, b *broker.Broker, a model.Allocation, buf []broker.ClassStats) []broker.ClassStats {
	buf = b.AllClassStats(buf)
	for j, st := range buf {
		want := a.Consumers[j]
		if want > st.Attached {
			want = st.Attached
		}
		if st.Admitted != want {
			h.fail("class %d: admitted %d, want min(allocation %d, attached %d)", j, st.Admitted, a.Consumers[j], st.Attached)
			break
		}
	}
	return buf
}
