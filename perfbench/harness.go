package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few-second self-test size.
	tiny bool
}

// stack is one set-up instance of a workload: the real layers wired
// together, warmed up and ready to replay the tape.
type stack interface {
	// play replays the event tape on h's schedule, feeding h its samples,
	// failures and per-layer metrics.
	play(h *harness) error
	// close stops every goroutine the stack started and waits for them.
	close()
}

// builder builds one stack. Only the program's set-up counts toward
// setup_s: sw runs while a builder is called, and the builder stops it
// while it generates the program's inputs.
type builder func(sw *stopwatch) (stack, error)

// A workload's prepare makes, once per run and untimed, the inputs the
// benchmark computes for itself (the tape, reference solutions), and
// returns the builder that sets the stack up on them setupReps times.
type workloadDef struct {
	name    string
	prepare func(opts options) (builder, error)
}

// stopwatch sums the intervals between start and the following stop.
type stopwatch struct {
	t0    time.Time
	total time.Duration
}

func (w *stopwatch) start() { w.t0 = time.Now() }

func (w *stopwatch) stop() { w.total += time.Since(w.t0) }

var workloads = []workloadDef{
	{"link-churn", prepareLinkChurn},
	{"demand-flash", prepareDemandFlash},
	{"dist-churn", prepareDistChurn},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setupReps is how many times a run builds its stack. setup_s reports
// the median, so one slow build (a GC, a page-fault storm) does not move
// it; the last instance is the one measured.
const setupReps = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"reaction_p50_ms", "ms"},
	{"reaction_p90_ms", "ms"},
	{"publish_p50_us", "us"},
	{"utility_mean", "objective"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"overlay.repair_us", "us"},
	{"overlay.restore_us", "us"},
	{"overlay.affected", "count"},
	{"overlay.rerouted", "count"},
	{"overlay.bfs_runs", "count"},
	{"overlay.reroute_ratio", "frac"},
	{"core.reset_routing_us", "us"},
	{"core.solve_ms", "ms"},
	{"core.solve_iters", "count"},
	{"core.step_us", "us"},
	{"core.stage_rate_us", "us"},
	{"core.stage_admission_us", "us"},
	{"core.stage_price_us", "us"},
	{"core.unconverged_frac", "frac"},
	{"autopilot.cycle_ms", "ms"},
	{"autopilot.other_ms", "ms"},
	{"autopilot.enact_ratio", "frac"},
	{"autopilot.oscillation", "frac"},
	{"broker.apply_us", "us"},
	{"broker.route_noop", "frac"},
	{"broker.route_incremental", "frac"},
	{"broker.route_full", "frac"},
	{"broker.classes_touched", "count"},
	{"broker.flows_touched", "count"},
	{"broker.noop_apply_ratio", "frac"},
	{"broker.attach_us", "us"},
	{"broker.detach_us", "us"},
	{"broker.publish_ns", "ns"},
	{"broker.publish_p99_us", "us"},
	{"broker.fanout", "count"},
	{"broker.throttle_ratio", "frac"},
	{"dist.round_ms", "ms"},
	{"dist.rounds_to_band", "count"},
	{"transport.frames_per_round", "count"},
	{"transport.bytes_per_round", "bytes"},
	{"transport.dropped", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb_per_event", "MiB"},
	{"gen.event_lag_ms", "ms"},
	{"gen.publish_lag_us", "us"},
	{"gen.behind", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Generator limits. A run whose event generator started an event more
// than one tape interval late, or whose publisher's p99 start lag
// exceeds publishLagLimit, fell behind its open-loop schedule: its
// latencies still count from the due times, but the offered load was not
// the stated one. Such runs are flagged on stderr and in gen.behind.
const publishLagLimit = 20 * time.Millisecond

// runWorkload sets the workload up setupReps times, replays its tape on
// the last instance and builds the report.
func runWorkload(opts options, log io.Writer) (*report, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == opts.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", opts.workload, workloadNames())
	}
	build, err := def.prepare(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", opts.workload, err)
	}
	setups := make([]float64, 0, setupReps)
	var st stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Collect the previous instance first so its garbage is not
		// billed to this set-up.
		runtime.GC()
		var sw stopwatch
		sw.start()
		s, err := build(&sw)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opts.workload, err)
		}
		sw.stop()
		setups = append(setups, sw.total.Seconds())
		st = s
	}
	defer st.close()
	runtime.GC()

	h := newHarness(opts, log)
	h.begin()
	if err := st.play(h); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	h.finish()
	return h.report(median(setups)), nil
}

// harness owns the schedule, the samples and the span accounting of one
// measured run. Every method is called from the control goroutine only;
// the publisher keeps its own samples.
type harness struct {
	opts options
	log  io.Writer

	reactions []float64 // ms, recorded events only
	utilities []float64
	eventLag  []float64 // ms, every event
	interval  time.Duration
	events    int

	attempted, failed int64
	failLog           int

	pub *publisher

	// Span accounting (traced runs only): busy time and count per layer
	// call, plus the layer time spent inside recorded reactions.
	spans       map[string]*spanStat
	spanCount   int64
	inEvent     bool
	eventLayer  time.Duration
	layerInReac float64 // ms
	layer       map[string]float64

	peakLive             uint64
	startWall            time.Time
	wall                 time.Duration
	gc0, alloc0          uint64
	gcCycles, allocBytes uint64
	samples              []metrics.Sample
}

type spanStat struct {
	n   int64
	sum time.Duration
}

func newHarness(opts options, log io.Writer) *harness {
	return &harness{
		opts:  opts,
		log:   log,
		spans: make(map[string]*spanStat),
		layer: make(map[string]float64),
		samples: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

func (h *harness) readRuntime() (live, gcs, allocs uint64) {
	metrics.Read(h.samples)
	for i, s := range h.samples {
		if s.Value.Kind() != metrics.KindUint64 {
			continue
		}
		v := s.Value.Uint64()
		switch i {
		case 0:
			live = v
		case 1:
			gcs = v
		case 2:
			allocs = v
		}
	}
	return live, gcs, allocs
}

func (h *harness) begin() {
	h.startWall = time.Now()
	var live uint64
	live, h.gc0, h.alloc0 = h.readRuntime()
	h.peakLive = live
}

func (h *harness) finish() {
	h.wall = time.Since(h.startWall)
	live, gcs, allocs := h.readRuntime()
	if live > h.peakLive {
		h.peakLive = live
	}
	h.gcCycles, h.allocBytes = gcs-h.gc0, allocs-h.alloc0
}

// span closes a layer call that started at t0 and returns its end time.
// In a traced run the call's duration is charged to name.
func (h *harness) span(name string, t0 time.Time) time.Time {
	t1 := time.Now()
	if h.opts.trace {
		s := h.spans[name]
		if s == nil {
			s = &spanStat{}
			h.spans[name] = s
		}
		d := t1.Sub(t0)
		s.n++
		s.sum += d
		h.spanCount++
		if h.inEvent {
			h.eventLayer += d
		}
	}
	return t1
}

// meanSpan returns the mean duration of a layer call in the given unit.
func (h *harness) meanSpan(name string, unit time.Duration) float64 {
	s := h.spans[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n) / float64(unit)
}

func (h *harness) spanSum(name string) time.Duration {
	if s := h.spans[name]; s != nil {
		return s.sum
	}
	return 0
}

// fail records one failed operation or correctness check.
func (h *harness) fail(format string, args ...any) {
	h.failed++
	if h.failLog < 20 {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
	h.failLog++
}

// check records a correctness check that failed when err is non-nil.
func (h *harness) check(what string, err error) {
	if err != nil {
		h.fail("%s: %v", what, err)
	}
}

// outcome is what one replayed event produced.
type outcome struct {
	// reaction runs from the event's due time to the moment the new
	// allocation is live for Publish.
	reaction time.Duration
	utility  float64
	// warm marks a warm-up event: executed and checked, not recorded.
	warm bool
}

// tapeLength is the number of events spaced interval apart that fill
// the run's measured seconds.
func tapeLength(opts options, interval time.Duration) int {
	n := int(opts.seconds * float64(time.Second) / float64(interval))
	if n < 1 {
		n = 1
	}
	return n
}

// drive starts the publisher, replays the tape while it runs and stops it.
func (h *harness) drive(pub *publisher, n int, interval time.Duration, ev func(k int, due time.Time) (outcome, error)) error {
	h.pub = pub
	if err := pub.start(h.opts.seconds); err != nil {
		return err
	}
	err := h.replay(n, interval, ev)
	pub.stop()
	return err
}

// replay plays n events spaced interval apart, open loop: event k is due
// at start + (k+1)*interval whether or not event k-1 has finished. ev
// performs event k and reports its outcome; an error counts the event as
// failed; ev runs the event's untimed correctness checks itself.
func (h *harness) replay(n int, interval time.Duration, ev func(k int, due time.Time) (outcome, error)) error {
	a, err := newAlarm()
	if err != nil {
		return err
	}
	defer a.close()
	h.interval, h.events = interval, n
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k+1) * interval)
		if err := a.wait(due); err != nil {
			return err
		}
		h.eventLag = append(h.eventLag, float64(time.Since(due))/float64(time.Millisecond))
		h.attempted++
		h.inEvent, h.eventLayer = true, 0
		out, err := ev(k, due)
		h.inEvent = false
		if err != nil {
			h.fail("event %d: %v", k, err)
			continue
		}
		if !out.warm {
			ms := float64(out.reaction) / float64(time.Millisecond)
			h.reactions = append(h.reactions, ms)
			h.utilities = append(h.utilities, out.utility)
			h.layerInReac += float64(h.eventLayer) / float64(time.Millisecond)
		}
		if live, _, _ := h.readRuntime(); live > h.peakLive {
			h.peakLive = live
		}
	}
	return nil
}

func (h *harness) report(setupS float64) *report {
	if h.pub != nil {
		h.attempted += h.pub.attempted()
		h.failed += h.pub.errs
		for _, e := range h.pub.errLog {
			fmt.Fprintln(os.Stderr, "FAIL: publish:", e)
		}
	}
	rep := &report{
		Correct:   h.failed == 0 && len(h.reactions) > 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   make(map[string]metric),
	}
	if h.attempted == 0 {
		rep.Attempted = 1
		rep.Failed = 1
	}
	behind := h.generatorsBehind()
	if !h.opts.trace {
		vals := map[string]float64{
			"reaction_p50_ms": percentile(h.reactions, 0.50),
			"reaction_p90_ms": percentile(h.reactions, 0.90),
			"utility_mean":    mean(h.utilities),
			"setup_s":         setupS,
			"peak_heap_mb":    float64(h.peakLive) / (1 << 20),
		}
		if h.pub != nil {
			vals["publish_p50_us"] = h.pub.windowed(h.pub.svc, 0.50)
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		fmt.Fprintf(h.log, "%s seed=%d: %d events (%d recorded), %d publishes, generators behind=%d\n",
			h.opts.workload, h.opts.seed, h.events, len(h.reactions), h.pubAttempted(), behind)
		return rep
	}

	l := h.layer
	l["runtime.gc_cycles"] = float64(h.gcCycles)
	if h.events > 0 {
		l["runtime.alloc_mb_per_event"] = float64(h.allocBytes) / (1 << 20) / float64(h.events)
	}
	l["gen.event_lag_ms"] = maxOf(h.eventLag)
	l["gen.behind"] = float64(behind)
	if p := h.pub; p != nil {
		l["gen.publish_lag_us"] = percentile32(p.lag, 0.99)
		l["broker.publish_ns"] = 1000 * mean32(p.svc)
		l["broker.publish_p99_us"] = p.windowed(p.lat, 0.99)
		if a := p.attempted(); a > 0 {
			l["broker.throttle_ratio"] = float64(p.throttled) / float64(a)
		}
		if p.accepted > 0 {
			// Handler deliveries per accepted publish; no publish runs
			// before the measured run, so the counters start from zero.
			l["broker.fanout"] = float64(p.deliv.total()) / float64(p.accepted)
		}
	}
	if total := sum(h.reactions); total > 0 {
		l["trace.coverage_frac"] = h.layerInReac / total
	}
	if h.wall > 0 {
		l["trace.overhead_frac"] = float64(h.spanCount) * spanCost() / float64(h.wall)
	}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: l[m.name], Unit: m.unit}
	}
	return rep
}

func (h *harness) pubAttempted() int64 {
	if h.pub == nil {
		return 0
	}
	return h.pub.attempted()
}

// generatorsBehind counts the generators (event tape, publisher) that
// fell behind their schedule by more than their stated limit, warning on
// stderr for each.
func (h *harness) generatorsBehind() int {
	n := 0
	if lag := maxOf(h.eventLag); h.interval > 0 && lag > float64(h.interval)/float64(time.Millisecond) {
		fmt.Fprintf(os.Stderr, "WARNING: event generator fell %.1f ms behind (limit: one %v interval)\n", lag, h.interval)
		n++
	}
	if h.pub != nil {
		if lag := percentile32(h.pub.lag, 0.99); lag > float64(publishLagLimit)/float64(time.Microsecond) {
			fmt.Fprintf(os.Stderr, "WARNING: publisher p99 lag %.0f us exceeds %v\n", lag, publishLagLimit)
			n++
		}
	}
	return n
}

// spanCost measures the benchmark's own cost of recording one span (a
// clock read plus the map update), used to estimate the share of the
// run the tracer itself took.
func spanCost() float64 {
	h := &harness{opts: options{trace: true}, spans: make(map[string]*spanStat)}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.span("calibrate", time.Time{})
	}
	return float64(time.Since(t0)) / n
}

// percentile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func percentile32(xs []float32, q float64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return percentile(f, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean32(xs []float32) float64 {
	t := 0.0
	for _, x := range xs {
		t += float64(x)
	}
	if len(xs) == 0 {
		return 0
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
