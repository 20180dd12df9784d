// Command feedback grades a Java submission against one of the twelve
// built-in assignments and prints the personalized feedback report.
//
// Usage:
//
//	feedback -assignment assignment1 submission.java
//	cat submission.java | feedback -assignment esc-LAB-3-P4-V1
//	feedback -list
//	feedback -assignment assignment1 -reference   # grade the reference
//	feedback -assignment assignment1 -functest submission.java
//	feedback -assignment assignment1 -reference -trace -metrics-dump
//	feedback -assignment assignment1 -metrics-addr :9090 submission.java
//	feedback -assignment assignment1 -workers 4 sub1.java sub2.java sub3.java
//	feedback -assignment assignment1 -json submission.java      # machine-readable
//	feedback -assignment assignment1 -analyze=false submission.java
//	feedback -assignment assignment1 -analyzers deadstore,noreturn submission.java
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/obs"
	"semfeed/internal/pdg"
)

func main() {
	var (
		assignmentID  = flag.String("assignment", "", "assignment ID (see -list)")
		list          = flag.Bool("list", false, "list the built-in assignments")
		reference     = flag.Bool("reference", false, "grade the assignment's reference solution")
		funcTests     = flag.Bool("functest", false, "also run the functional-test suite")
		inlineHelpers = flag.Bool("inline", false, "inline simple helper methods before grading (future-work extension)")
		normalizeElse = flag.Bool("normalize-else", false, "normalize else branches into negated conditions (future-work extension)")
		jsonOut       = flag.Bool("json", false, "emit the report as JSON (for LMS integration)")
		analyze       = flag.Bool("analyze", true, "run the static analyzers and include their diagnostics in the report")
		analyzerList  = flag.String("analyzers", "", "comma-separated analyzer subset to run (default: all; implies -analyze)")
		workers       = flag.Int("workers", 0, "batch pool size when grading multiple files (0 = GOMAXPROCS)")
		traceFlag     = flag.Bool("trace", false, "record the grade as a span trace and print the span tree to stderr")
		metricsDump   = flag.Bool("metrics-dump", false, "print the Prometheus metrics exposition to stderr on exit")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /trace on this address while running")
		logFormat     = flag.String("log-format", "", `emit structured event logs to stderr: "text" or "json" (empty disables)`)
		version       = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("feedback"))
		return
	}

	if *logFormat != "" {
		obs.SetLogger(obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo))
	}
	if *traceFlag {
		obs.Enable()
		obs.EnableTracing()
	}
	if *metricsDump {
		obs.Enable()
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
				fmt.Fprintf(os.Stderr, "feedback: metrics server: %v\n", err)
			}
		}()
	}
	// Observability dumps go to stderr so stdout stays clean for the report
	// (and its JSON form). Called explicitly on every exit path because
	// os.Exit skips defers — a failed parse is exactly the run where
	// parse_errors_total matters.
	dumpObs := func() {
		if *traceFlag {
			if td := obs.LastTrace(); td != nil {
				fmt.Fprintf(os.Stderr, "--- trace ---\n%s", td.Tree())
			}
		}
		if *metricsDump {
			fmt.Fprintln(os.Stderr, "--- metrics ---")
			_ = obs.WriteProm(os.Stderr)
		}
	}

	if *list {
		for _, a := range assignments.All() {
			fmt.Printf("%-18s %-14s %s\n", a.ID, a.Course, a.Description)
		}
		return
	}
	a := assignments.Get(*assignmentID)
	if a == nil {
		fmt.Fprintf(os.Stderr, "feedback: unknown assignment %q (try -list)\n", *assignmentID)
		os.Exit(2)
	}

	// The analyzers default on: every built-in reference solution grades
	// clean, so diagnostics on a submission are signal, not noise. KB
	// definitions may still narrow or disable them per assignment.
	var driver *analysis.Driver
	switch {
	case *analyzerList != "":
		d, err := analysis.Default().Driver(strings.Split(*analyzerList, ","), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "feedback: -analyzers: %v\n", err)
			os.Exit(2)
		}
		driver = d
	case *analyze:
		driver = analysis.DefaultDriver()
	}

	grader := core.NewGrader(core.Options{
		InlineHelpers: *inlineHelpers,
		BuildOptions:  pdg.BuildOpts{NormalizeElse: *normalizeElse},
		Analyzers:     driver,
	})

	// Several file arguments grade as one batch on the worker pool; the
	// reports print in argument order regardless of completion order.
	if !*reference && flag.NArg() > 1 {
		os.Exit(gradeBatch(grader, a, flag.Args(), *workers, *jsonOut, dumpObs))
	}

	src, err := readSource(*reference, a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "feedback: %v\n", err)
		os.Exit(1)
	}
	report, err := grader.Grade(src, a.Spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "feedback: %v\n", err)
		dumpObs()
		os.Exit(1)
	}
	// Dumps run last so they cover the functional tests too.
	defer dumpObs()
	// One structured event line per grade, same schema as the service (the
	// logger discards unless -log-format installed a sink).
	obs.Logger().Info("grade",
		"assignment", a.ID,
		"matched", report.Matched,
		"score", report.Score,
		"max_score", report.MaxScore,
		"elapsed_ms", float64(report.Elapsed.Microseconds())/1000)

	// Functional testing runs before the report is emitted so its cost lands
	// in report.Stats (functest_ns, interp_compile_ns, cache traffic) on the
	// JSON path too. It is its own attributable phase: a span (when tracing)
	// carrying case/step work counters, and the functest slice of
	// semfeed_phase_ns — the column that dominates BENCH_tableone on
	// interpreter-heavy assignments.
	var verdict *functest.Verdict
	if *funcTests {
		v, err := core.RunFuncTests(a.ID, a.Tests, src, report.Stats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "functional tests: %v\n", err)
			dumpObs()
			os.Exit(1)
		}
		verdict = &v
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "feedback: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(report)
	fmt.Printf("  (feedback computed in %v)\n", report.Elapsed)

	if verdict != nil {
		if verdict.Pass {
			fmt.Println("Functional tests: PASS")
		} else {
			fmt.Println("Functional tests: FAIL")
			for _, f := range verdict.Failures {
				fmt.Printf("  %s\n", f)
			}
		}
	}
}

// gradeBatch grades every named file through the batch engine and prints the
// reports in argument order. Unreadable or unparseable files fail alone; the
// exit code is 1 if any submission failed.
func gradeBatch(grader *core.Grader, a *assignments.Assignment, paths []string, workers int, jsonOut bool, dumpObs func()) int {
	subs := make([]core.Submission, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "feedback: %v\n", err)
			return 1
		}
		subs[i] = core.Submission{ID: path, Src: string(data)}
	}

	bg := core.NewBatchGrader(grader, core.BatchOptions{Workers: workers})
	results, stats := bg.GradeAll(context.Background(), a.Spec, subs)
	defer dumpObs()

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type item struct {
			File   string       `json:"file"`
			Error  string       `json:"error,omitempty"`
			Report *core.Report `json:"report,omitempty"`
		}
		items := make([]item, len(results))
		for i, res := range results {
			items[i] = item{File: res.ID, Report: res.Report}
			if res.Err != nil {
				items[i].Error = res.Err.Error()
			}
		}
		if err := enc.Encode(items); err != nil {
			fmt.Fprintf(os.Stderr, "feedback: %v\n", err)
			return 1
		}
	} else {
		for _, res := range results {
			fmt.Printf("=== %s ===\n", res.ID)
			if res.Err != nil {
				fmt.Printf("  error: %v\n", res.Err)
				continue
			}
			fmt.Print(res.Report)
		}
		fmt.Printf("batch: %s\n", stats)
	}
	if stats.Failed > 0 || stats.Cancelled > 0 {
		return 1
	}
	return 0
}

func readSource(useReference bool, a *assignments.Assignment) (string, error) {
	if useReference {
		return a.Reference(), nil
	}
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		return string(data), err
	}
	data, err := io.ReadAll(os.Stdin)
	return string(data), err
}
