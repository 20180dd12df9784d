// Command tableone regenerates Table I of the paper: for every assignment it
// measures the submission-space size S, average lines L, functional-testing
// time T, pattern and constraint counts P and C, matching time M, and the
// discrepancy count D, printing each measured row next to the published one.
//
// Usage:
//
//	tableone              # 200 submissions per assignment (exhaustive when smaller)
//	tableone -n 5000      # larger sample; small spaces become exhaustive
//	tableone -assignment assignment1 -n 640000   # one full row
//	tableone -json        # also write BENCH_tableone.json (T, M, D plus matcher work counters)
//	tableone -workers 4   # batch-grade each row on a 4-worker pool (also measures speedup vs serial)
//	tableone -seed 42     # reproducible alternate sample of non-exhaustive rows
//	tableone -analysis    # also run the static analyzers; records per-grade overhead (analysis_ns)
//	tableone -metrics-addr :9090   # serve live pipeline metrics during the sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/bench"
	"semfeed/internal/obs"
)

func main() {
	var (
		n           = flag.Int("n", 200, "max submissions evaluated per assignment")
		one         = flag.String("assignment", "", "measure a single assignment")
		workers     = flag.Int("workers", 0, "batch grading pool size (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 0, "sample seed for non-exhaustive rows (0 = historical walk)")
		analysisOn  = flag.Bool("analysis", false, "run the static analyzers on every submission and record the per-grade overhead")
		jsonOut     = flag.Bool("json", false, "write the sweep (incl. matcher work counters) to -json-out")
		jsonPath    = flag.String("json-out", "BENCH_tableone.json", "output path for -json")
		traceFlag   = flag.Bool("trace", false, "record grade span traces and print the last span tree to stderr")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /trace on this address during the sweep")
	)
	flag.Parse()

	if *traceFlag {
		obs.Enable()
		obs.EnableTracing()
	}
	if *metricsAddr != "" {
		msrv, errc := obs.StartServer(*metricsAddr)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = msrv.Shutdown(ctx)
		}()
		go func() {
			if err := <-errc; err != nil {
				fmt.Fprintf(os.Stderr, "tableone: metrics server: %v\n", err)
			}
		}()
	}

	opts := bench.Options{MaxSubs: *n, Workers: *workers, Seed: *seed, Analysis: *analysisOn}
	var rows []bench.Row
	if *one != "" {
		a := assignments.Get(*one)
		if a == nil {
			fmt.Fprintf(os.Stderr, "tableone: unknown assignment %q\n", *one)
			os.Exit(2)
		}
		rows = []bench.Row{bench.MeasureRowOpts(a, opts)}
	} else {
		rows = bench.MeasureAllOpts(opts)
	}
	fmt.Print(bench.FormatTable(rows))
	fmt.Println("\nD(eval) counts functional-vs-feedback disagreements among evaluated submissions;")
	fmt.Println("D(scaled) extrapolates to the full space when sampling. Absolute times are not")
	fmt.Println("comparable to the paper's 2006-era hardware; the claims are M in the millisecond")
	fmt.Println("range and D << S. The paper's T >= M comes from its JVM harness's fixed costs and")
	fmt.Println("timeouts; here T is interpreter time, and a loop that can never end is skipped to")
	fmt.Println("its step limit, so T falls below M on most rows.")

	if *jsonOut {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tableone: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, rows, time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "tableone: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tableone: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tableone: wrote %s (%d rows)\n", *jsonPath, len(rows))
	}
	if *traceFlag {
		if td := obs.LastTrace(); td != nil {
			fmt.Fprintf(os.Stderr, "--- last trace ---\n%s", td.Tree())
		}
	}
}
