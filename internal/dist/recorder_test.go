package dist

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// testClock builds a shared recorder clock and stops its ticker when the
// test ends.
func testClock(t *testing.T) *recClock {
	t.Helper()
	clk := newRecClock(time.Now())
	t.Cleanup(clk.stop)
	return clk
}

func TestRecorderRoundTrip(t *testing.T) {
	r := newRecorder("flow/0", 16, testClock(t))
	r.record(EvSend, 1, 2, 3)
	r.record(EvRecv, 1, 7, 0)
	r.record(EvRound, 1, 0, 0)

	evs := r.events(nil)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	want := []Event{
		{Agent: "flow/0", Seq: 0, Type: EvSend, Round: 1, A: 2, B: 3},
		{Agent: "flow/0", Seq: 1, Type: EvRecv, Round: 1, A: 7},
		{Agent: "flow/0", Seq: 2, Type: EvRound, Round: 1},
	}
	for i, e := range evs {
		w := want[i]
		if e.Agent != w.Agent || e.Seq != w.Seq || e.Type != w.Type || e.Round != w.Round || e.A != w.A || e.B != w.B {
			t.Errorf("event %d: got %+v, want %+v", i, e, w)
		}
		if e.Nanos < 0 {
			t.Errorf("event %d: negative timestamp %d", i, e.Nanos)
		}
	}
	if evs[0].Nanos > evs[2].Nanos {
		t.Errorf("timestamps not monotonic: %d then %d", evs[0].Nanos, evs[2].Nanos)
	}
}

func TestRecorderWrap(t *testing.T) {
	r := newRecorder("node/0", 8, testClock(t))
	for i := 0; i < 20; i++ {
		r.record(EvSend, i, int64(i), 0)
	}
	evs := r.events(nil)
	if len(evs) != 8 {
		t.Fatalf("got %d events after wrap, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(12 + i); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, want)
		}
		if e.Round != int(e.Seq) || e.A != int64(e.Seq) {
			t.Errorf("event %d: payload %d/%d does not match seq %d", i, e.Round, e.A, e.Seq)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *recorder
	r.record(EvSend, 1, 0, 0) // must not panic
	if evs := r.events(nil); len(evs) != 0 {
		t.Errorf("nil recorder returned %d events", len(evs))
	}
}

func TestRecorderRecordZeroAlloc(t *testing.T) {
	r := newRecorder("flow/0", 64, testClock(t))
	allocs := testing.AllocsPerRun(1000, func() {
		r.record(EvSend, 5, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("record allocates %.1f times per call, want 0", allocs)
	}
}

// TestRecorderConcurrentRead hammers one ring from a writer while a reader
// snapshots it: every returned event must be internally consistent (the
// payload must match the sequence number it claims), proving the seqlock
// discards torn slots. Run under -race in CI.
func TestRecorderConcurrentRead(t *testing.T) {
	r := newRecorder("flow/0", 32, testClock(t))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.record(EvSend, i&0xffff, int64(i), int64(i))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, e := range r.events(nil) {
			if e.A != e.B {
				t.Fatalf("torn read: A=%d B=%d at seq %d", e.A, e.B, e.Seq)
			}
			if int64(e.Seq) != e.A {
				t.Fatalf("slot/seq mismatch: seq %d holds payload %d", e.Seq, e.A)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestEventLogRoundTrip(t *testing.T) {
	clk := testClock(t)
	ra := newRecorder("flow/0", 16, clk)
	rb := newRecorder("node/1", 16, clk)
	ra.record(EvSend, 1, 0, 2)
	rb.record(EvRecv, 1, 0, 0)
	ra.record(EvRound, 1, 0, 0)
	rb.record(EvResend, 1, 1000, 0)

	var buf bytes.Buffer
	if err := writeEvents(&buf, rb.events(ra.events(nil))); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Nanos < recs[i-1].Nanos {
			t.Errorf("log not time-sorted at line %d", i+1)
		}
	}
	byEv := map[string]int{}
	for _, rec := range recs {
		byEv[rec.Ev]++
		if parseEventType(rec.Ev) == 0 {
			t.Errorf("unparseable event name %q", rec.Ev)
		}
	}
	for _, ev := range []string{"send", "recv", "round", "resend"} {
		if byEv[ev] != 1 {
			t.Errorf("event %q appears %d times, want 1", ev, byEv[ev])
		}
	}
}

func TestReadEventLogRejectsGarbage(t *testing.T) {
	_, err := ReadEventLog(bytes.NewBufferString("{\"agent\":\"a\"}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestAnalyzeFindsStraggler builds a synthetic log where flow/1 sits three
// rounds behind a ten-round frontier for most of the run: the analyzer
// must rank it first with the matching lag integral.
func TestAnalyzeFindsStraggler(t *testing.T) {
	const us = int64(1000)
	var recs []EventRecord
	add := func(agent string, ns int64, ev string, round int, a, b int64) {
		recs = append(recs, EventRecord{Agent: agent, Seq: uint64(len(recs)), Nanos: ns, Ev: ev, Round: round, A: a, B: b})
	}
	// flow/0 and node/0 advance one round per 10µs through round 10. The
	// recv events carry the sender ids that join all three agents into
	// one communicating component.
	for r := 1; r <= 10; r++ {
		ns := int64(r) * 10 * us
		if r > 1 {
			add("flow/0", ns-us, "recv", r-1, 0, 0) // report from node/0
		}
		add("flow/0", ns, "send", r, 0, 2)
		add("flow/0", ns, "round", r, 0, 0)
		add("node/0", ns+us, "recv", r, 0, 0) // rate from flow/0
		add("node/0", ns+us, "send", r, 1, 2)
		add("node/0", ns+us, "round", r, 0, 0)
	}
	// flow/1 completes round 1 at t=10µs, then chirps until it jumps to
	// round 10 at t=100µs.
	add("flow/1", 10*us, "recv", 1, 0, 0) // report from node/0
	add("flow/1", 10*us, "send", 1, 0, 2)
	add("flow/1", 10*us, "round", 1, 0, 0)
	add("flow/1", 50*us, "resend", 1, 4000, 0)
	add("flow/1", 70*us, "resend", 1, 8000, 0)
	add("flow/1", 100*us, "round", 10, 0, 0)

	a := Analyze(recs)
	if a.MaxRound != 10 {
		t.Fatalf("MaxRound = %d, want 10", a.MaxRound)
	}
	if len(a.Agents) != 3 {
		t.Fatalf("%d agents, want 3", len(a.Agents))
	}
	top := a.Agents[0]
	if top.Agent != "flow/1" {
		t.Fatalf("top straggler = %s (behind %dns), want flow/1", top.Agent, top.BehindNanos)
	}
	if top.Chirps != 2 {
		t.Errorf("straggler chirps = %d, want 2", top.Chirps)
	}
	if top.MaxLag < 8 {
		t.Errorf("straggler MaxLag = %d, want >= 8", top.MaxLag)
	}
	if top.BehindNanos == 0 {
		t.Error("straggler BehindNanos = 0")
	}
	for _, ag := range a.Agents[1:] {
		if ag.BehindNanos >= top.BehindNanos {
			t.Errorf("%s BehindNanos %d not below straggler's %d", ag.Agent, ag.BehindNanos, top.BehindNanos)
		}
	}
	if a.TotalResends != 2 {
		t.Errorf("TotalResends = %d, want 2", a.TotalResends)
	}
	if got := a.Rounds[0].Round; got != 1 {
		t.Errorf("first round summary is %d, want 1", got)
	}
	resends := 0
	for _, rs := range a.Rounds {
		resends += rs.Resends
		if rs.Round == 1 && rs.Resends != 2 {
			t.Errorf("round 1 resends = %d, want 2", rs.Resends)
		}
	}
	if resends != a.TotalResends {
		t.Errorf("per-round resends sum %d != total %d", resends, a.TotalResends)
	}
	if a.StalenessDist[0] == 0 {
		t.Error("staleness distribution empty at lag 0")
	}
}

// TestAnalyzeBlamesCutOffAgent builds a synthetic log where flow/1 is cut
// off after announcing round 2: it keeps chirping, nothing it sends
// arrives, and it hears nothing, while node/0 (which needs flow/1's rate)
// and flow/0 (which needs node/0's report) wait. flow/1 is never behind
// its component's frontier, since everyone stalls with it, yet every
// wait roots at it: the analyzer must charge the waits to flow/1 and
// rank it first, and charge nothing to the agents that merely waited.
func TestAnalyzeBlamesCutOffAgent(t *testing.T) {
	const us = int64(1000)
	var recs []EventRecord
	add := func(agent string, ns int64, ev string, round int, a int64) {
		recs = append(recs, EventRecord{Agent: agent, Seq: uint64(len(recs)), Nanos: ns * us, Ev: ev, Round: round, A: a})
	}
	// Round 1 completes everywhere.
	add("flow/0", 10, "send", 1, 0)
	add("flow/0", 10, "round", 1, 0)
	add("flow/1", 10, "send", 1, 0)
	add("flow/1", 10, "round", 1, 0)
	add("node/0", 11, "absorb", 1, 0) // rate from flow/0
	add("node/0", 11, "absorb", 1, 1) // rate from flow/1
	add("node/0", 11, "send", 1, 0)
	add("node/0", 11, "round", 1, 0)
	add("flow/0", 12, "absorb", 1, 0) // report from node/0
	add("flow/1", 12, "absorb", 1, 0)
	// Round 2: flow/1's announce is lost, and so are its chirps.
	add("flow/0", 20, "send", 2, 0)
	add("flow/0", 20, "round", 2, 0)
	add("flow/1", 20, "send", 2, 0)
	add("flow/1", 20, "round", 2, 0)
	add("node/0", 21, "absorb", 2, 0)
	for _, ns := range []int64{40, 60, 80} {
		add("flow/1", ns, "resend", 2, 0)
	}
	// flow/0 and node/0 keep hearing each other's chirps meanwhile.
	for _, ns := range []int64{45, 70, 90} {
		add("flow/0", ns, "resend", 2, 0)
		add("node/0", ns+1, "recv", 2, 0)
	}
	// The cut heals: node/0 hears flow/1 and everyone advances.
	add("node/0", 100, "absorb", 2, 1)
	add("node/0", 100, "send", 2, 0)
	add("node/0", 100, "round", 2, 0)
	add("flow/0", 101, "absorb", 2, 0)
	add("flow/0", 101, "send", 3, 0)
	add("flow/0", 101, "round", 3, 0)
	add("flow/1", 101, "absorb", 2, 0)
	add("flow/1", 101, "send", 3, 0)
	add("flow/1", 101, "round", 3, 0)

	a := Analyze(recs)
	if len(a.Agents) != 3 {
		t.Fatalf("%d agents, want 3", len(a.Agents))
	}
	top := a.Agents[0]
	if top.Agent != "flow/1" {
		t.Fatalf("top straggler = %s (blame %dns), want flow/1", top.Agent, top.BlameNanos)
	}
	// node/0's wait for round 2, and flow/0's and flow/1's waits for
	// round 3 through it, each root at flow/1's cut-off transit [20, 100].
	if want := 3 * 80 * us; top.BlameNanos != want {
		t.Errorf("flow/1 BlameNanos = %d, want %d", top.BlameNanos, want)
	}
	if top.BehindNanos != 0 {
		t.Errorf("flow/1 BehindNanos = %d, want 0 (it never falls behind)", top.BehindNanos)
	}
	for _, ag := range a.Agents[1:] {
		if ag.BlameNanos != 0 {
			t.Errorf("%s BlameNanos = %d, want 0 (it only waited)", ag.Agent, ag.BlameNanos)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.MaxRound != 0 || len(a.Agents) != 0 || len(a.Rounds) != 0 {
		t.Errorf("non-empty analysis from empty log: %+v", a)
	}
}
