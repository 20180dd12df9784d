// Command perfbench is the repository's benchmark. It runs one workload
// against the program through its public functions, checks every output,
// and prints one JSON result line: the end-to-end metrics, or with --trace 1
// the per-layer metrics of a separate traced run.
//
// Workloads:
//
//	serve-cold      POST /v1/grade on distinct synthesized sources: every
//	                request misses the store and runs the whole grading core.
//	serve-resubmit  the same server and clients; every request resubmits a
//	                source graded during set-up, so every request is a store
//	                hit and the grading core does no work.
//	tableone        the Table I sweep of `tableone -n 200 -seed S`: functional
//	                tests on the compiled interpreter, then batch grading.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

const (
	// defaultSeed is the seed the pinned outputs were recorded at.
	defaultSeed = 1
	// runLimit bounds a whole run; past it the watchdog kills the set-up
	// probes and exits non-zero.
	runLimit = 170 * time.Second
)

var workloads = []string{"serve-cold", "serve-resubmit", "tableone"}

func main() {
	if os.Getenv(probeEnv) == "1" {
		os.Exit(runProbe(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	writePins string
	spans     string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.writePins, "write-pins", "", "record the default seed's outputs to this file and exit")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1, also write every span to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if o.writePins != "" {
		return o, nil
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloads)
	case o.seconds <= 0:
		return o, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	kids := newChildren()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: watchdog: run exceeded %v\n", runLimit)
		kids.killAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			kids.killAll()
			fmt.Fprintf(stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
			code = 2
		}
	}()
	if o.writePins != "" {
		if err := writePins(o.writePins); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	if o.workload == "tableone" {
		res, err = runTableone(o, p, kids, stderr)
	} else {
		res, err = runServe(o, p, kids, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runProbe is a set-up probe's whole life: set up the workload, say so on
// stdout, tear down, exit.
func runProbe(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench probe: %v\n", err)
		return 2
	}
	watchdog := time.AfterFunc(probeLimit, func() {
		fmt.Fprintln(stderr, "perfbench probe: watchdog")
		os.Exit(3)
	})
	defer watchdog.Stop()
	if o.workload == "tableone" {
		setupTable(o.seed)
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	r, err := setupServe(o.workload, o.seed, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench probe: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if err := r.close(); err != nil {
		fmt.Fprintf(stderr, "perfbench probe: %v\n", err)
		return 1
	}
	return 0
}
