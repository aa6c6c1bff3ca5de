// Command perfbench is the repository's closed-loop reaction benchmark.
// It replays a seeded event tape against the real stack (overlay → core →
// broker, and dist/transport for the distributed optimizer) and reports
// how long the loop takes to react, how publishes fare meanwhile, and
// whether every enacted result is correct. See README.md in this
// directory for the workloads, the metrics and how to read them.
//
// Usage:
//
//	perfbench --workload link-churn|demand-flash|dist-churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the per-layer set. The exit code is
// non-zero when any operation failed or any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"
)

// watchdogSlack is how long a run may take beyond its measured seconds
// (set-ups, the last event, teardown) before the watchdog ends it.
const watchdogSlack = 100 * time.Second

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the command line, runs one workload and prints its report.
// It returns the process exit code.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "tape seed: the same seed replays the same events")
		seconds = fs.Float64("seconds", 10, "measured duration of the event tape")
		trace   = fs.Int("trace", 0, "1 times every layer call and reports the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	opts := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	// A wedged layer must not hold the run forever: past the watchdog the
	// process dumps every goroutine's stack and exits without a result.
	watchdog := time.AfterFunc(time.Duration(*seconds*float64(time.Second))+watchdogSlack, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not finish; goroutines:")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()
	rep, err := runWorkload(opts, out)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !rep.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed", opts.workload, rep.Failed, rep.Attempted)
	}
	return 0, nil
}
