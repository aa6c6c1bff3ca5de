package dist

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// TestCollectorDropsInputsForFinalizedRounds: a resent or late rate or
// report for a round that already finalized must not recreate that
// round's assembly state, which nothing would ever delete again.
func TestCollectorDropsInputsForFinalizedRounds(t *testing.T) {
	p := workload.Base()
	c := newCollector(p, nil, len(p.Nodes), nil, nil, time.Now())
	for i := range p.Flows {
		c.absorbRate(rateMsg{Round: 1, Flow: model.FlowID(i), Rate: 1, Active: true})
	}
	for b := range p.Nodes {
		c.absorbReport(reportMsg{Round: 1, Node: model.NodeID(b), Price: 1})
	}
	if len(c.stats) != 1 || c.stats[0].Round != 1 {
		t.Fatalf("round 1 did not finalize: stats = %v", c.stats)
	}

	c.absorbRate(rateMsg{Round: 1, Flow: 0, Rate: 1, Active: true})
	c.absorbReport(reportMsg{Round: 1, Node: 0, Price: 1, Deliveries: map[model.ClassID]float64{0: 1}})
	for name, n := range map[string]int{
		"roundRates": len(c.roundRates),
		"roundPops":  len(c.roundPops),
		"roundDel":   len(c.roundDel),
		"reportSeen": len(c.reportSeen),
		"roundGot":   len(c.roundGot),
		"roundFirst": len(c.roundFirst),
	} {
		if n != 0 {
			t.Errorf("%s holds %d rounds after duplicates of a finalized round, want 0", name, n)
		}
	}
	if len(c.stats) != 1 {
		t.Errorf("duplicates finalized the round again: stats = %v", c.stats)
	}
}
