// Package bench regenerates Table I of the paper: for every assignment it
// measures |S|, average lines L, functional-testing time T, pattern count P,
// constraint count C, matching time M, and the number of discrepancies D
// between functional testing and the personalized feedback.
//
// Small spaces are enumerated exhaustively; large ones are sampled with a
// deterministic coprime stride and D is extrapolated to the full space.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/obs"
	"semfeed/internal/synth"
)

// Options tune a Table I measurement run.
type Options struct {
	// MaxSubs is the per-assignment submission budget (spaces at most this
	// large are enumerated exhaustively).
	MaxSubs int
	// Workers is the batch-grading pool size (default GOMAXPROCS). With
	// Workers > 1 the run additionally measures a serial grading pass so the
	// recorded speedup is an actual measurement, not an estimate.
	Workers int
	// Seed selects the sample of non-exhaustive rows (see synth.SampleSeed);
	// it is recorded in the row so sampled runs are reproducible.
	Seed int64
	// Analysis additionally runs the full static-analyzer suite on every
	// graded submission, recording the mean per-submission analysis time so
	// the overhead of the analysis layer is tracked next to M.
	Analysis bool
}

// Row is one measured Table I row, extended with the mean per-submission
// matcher work counters the observability layer accounts (so the perf
// trajectory of the search itself — not just wall time — is tracked across
// PRs via the -json output of cmd/tableone).
type Row struct {
	Assignment string        `json:"assignment"`
	S          int64         `json:"space_size"`
	Evaluated  int           `json:"evaluated"`
	Exhaustive bool          `json:"exhaustive"`
	L          float64       `json:"avg_lines"`
	T          time.Duration `json:"functest_ns"` // mean functional-testing time per submission
	P          int           `json:"patterns"`
	C          int           `json:"constraints"`
	M          time.Duration `json:"matching_ns"`          // mean feedback (EPDG + matching) time per submission
	D          int           `json:"discrepancies"`        // discrepancies among evaluated submissions
	DScaled    int64         `json:"discrepancies_scaled"` // D extrapolated to the full space
	ParseFail  int           `json:"parse_failures"`

	// Mean matcher work per graded submission (from Report.Stats).
	AvgMatchSteps       float64 `json:"avg_match_steps"`
	AvgMatchBacktracks  float64 `json:"avg_match_backtracks"`
	AvgEmbeddings       float64 `json:"avg_embeddings"`
	AvgMethodCombos     float64 `json:"avg_method_combos"`
	AvgConstraintCombos float64 `json:"avg_constraint_combos"`
	AvgEPDGNodes        float64 `json:"avg_epdg_nodes"`
	AvgEPDGEdges        float64 `json:"avg_epdg_edges"`

	// Compiled-interpreter columns: mean per-submission lowering time
	// (distinct sources compile once through a per-row Program cache, so
	// this amortizes across repeats) and the cache hits column T benefited
	// from. T itself is pure execution time.
	CompileTime     time.Duration `json:"compile_ns"`
	InterpCacheHits int64         `json:"interp_cache_hits"`
	// Mean interpreter steps per submission across its functional tests:
	// charged against the budgets (Verdict.Steps), and the part of those
	// loop fast-forward skipped (Verdict.Skipped). Their difference is the
	// executed work behind T.
	AvgInterpSteps        float64 `json:"avg_interp_steps"`
	AvgInterpStepsSkipped float64 `json:"avg_interp_steps_skipped"`

	// Static-analysis overhead, measured only when Options.Analysis is set:
	// mean per-submission analyzer-driver time (a slice of M's wall clock)
	// and mean diagnostics per submission.
	AnalysisTime time.Duration `json:"analysis_ns,omitempty"`
	AvgFindings  float64       `json:"avg_analysis_findings,omitempty"`

	// Batch grading throughput (the BatchGrader run that graded this row).
	Seed            int64         `json:"seed"`                        // sample seed (0 = historical walk)
	Workers         int           `json:"workers"`                     // batch pool size
	GradeWall       time.Duration `json:"grade_wall_ns"`               // wall time of the batch grading pass
	SubsPerSec      float64       `json:"grade_subs_per_sec"`          // graded submissions per wall second
	SpeedupVsSerial float64       `json:"speedup_vs_serial,omitempty"` // measured only when Workers > 1
}

// MeasureRow evaluates up to maxSubs submissions of the assignment's space
// with default options.
func MeasureRow(a *assignments.Assignment, maxSubs int) Row {
	return MeasureRowOpts(a, Options{MaxSubs: maxSubs})
}

// MeasureRowOpts evaluates one Table I row: it renders and parses the
// sampled space, runs the functional-test ground truth sequentially (column
// T), grades everything through the batch engine (columns M and D plus the
// matcher work counters), and records the batch throughput.
func MeasureRowOpts(a *assignments.Assignment, opts Options) Row {
	if opts.MaxSubs <= 0 {
		opts.MaxSubs = 200
	}
	row := Row{
		Assignment: a.ID,
		S:          a.Synth.Size(),
		P:          a.Spec.PatternCount(),
		C:          a.Spec.ConstraintCount(),
		Seed:       opts.Seed,
	}
	sample := a.Synth.SampleSeed(opts.MaxSubs, opts.Seed)
	row.Evaluated = len(sample)
	row.Exhaustive = int64(len(sample)) == row.S

	// Render and parse the whole sample up front; grading and functional
	// testing then work on the same parsed units.
	var lines int
	units := make([]*ast.CompilationUnit, 0, len(sample))
	srcs := make([]string, 0, len(sample))
	for _, k := range sample {
		src := a.Synth.Render(k)
		lines += synth.Lines(src)
		unit, err := parser.Parse(src)
		if err != nil {
			row.ParseFail++
			continue
		}
		units = append(units, unit)
		srcs = append(srcs, src)
	}

	// Column T: the functional-testing ground truth, sequential as the
	// interpreter would run inside a grading sandbox. The total feeds the
	// functest slice of semfeed_phase_ns, so a metrics-serving bench run
	// attributes interpreter cost the same way the grader attributes its
	// phases.
	// Sources lower once through a per-row Program cache, so T is pure
	// execution time — comparable across engines — with the closure-
	// compilation share split out as compile_ns.
	cache := interp.NewCache(0)
	verdicts := make([]bool, len(units))
	var funcTotal, compileTotal time.Duration
	var steps, skipped int
	for i, unit := range units {
		c0 := time.Now()
		prog, _ := cache.CompileCached(srcs[i], unit)
		compileTotal += time.Since(c0)
		t0 := time.Now()
		v := a.Tests.RunProgram(prog)
		funcTotal += time.Since(t0)
		verdicts[i] = v.Pass
		steps += v.Steps
		skipped += v.Skipped
	}
	obs.PhaseNS.Add(funcTotal.Nanoseconds(), a.ID, "functest")
	if compileTotal > 0 {
		obs.PhaseNS.Add(compileTotal.Nanoseconds(), a.ID, "interp_compile")
	}
	row.InterpCacheHits = cache.Stats().Hits

	// Columns M and D: batch-grade every parsed unit. M averages the
	// per-report grading time (measured inside GradeUnit, so it stays a
	// per-submission cost no matter how many workers run).
	var gopts core.Options
	if opts.Analysis {
		gopts.Analyzers = analysis.DefaultDriver()
	}
	grader := core.NewGrader(gopts)
	bg := core.NewBatchGrader(grader, core.BatchOptions{Workers: opts.Workers})
	results, bstats := bg.GradeUnits(context.Background(), a.Spec, units)
	row.Workers = bstats.Workers
	row.GradeWall = bstats.Wall
	row.SubsPerSec = bstats.Throughput()

	var matchTotal, analysisTotal time.Duration
	var findings int
	var work core.Stats
	for i, res := range results {
		if res.Err != nil || res.Report == nil {
			row.ParseFail++ // should not happen: units already parsed
			continue
		}
		rep := res.Report
		matchTotal += rep.Elapsed

		st := rep.Stats
		analysisTotal += st.AnalysisTime
		for _, c := range st.AnalysisFindings {
			findings += c
		}
		work.MatchSteps += st.MatchSteps
		work.MatchBacktracks += st.MatchBacktracks
		work.Embeddings += st.Embeddings
		work.MethodCombos += st.MethodCombos
		work.ConstraintCombos += st.ConstraintCombos
		work.EPDGNodes += st.EPDGNodes
		work.EPDGEdges += st.EPDGEdges

		if verdicts[i] != rep.AllCorrect() {
			row.D++
		}
	}

	// With a parallel pool, measure the serial pass too so the recorded
	// speedup is a real before/after on this machine and sample.
	if bstats.Workers > 1 && bstats.Wall > 0 {
		serial := core.NewBatchGrader(grader, core.BatchOptions{Workers: 1})
		_, sstats := serial.GradeUnits(context.Background(), a.Spec, units)
		if sstats.Wall > 0 {
			row.SpeedupVsSerial = sstats.Wall.Seconds() / bstats.Wall.Seconds()
		}
	}

	n := len(sample) - row.ParseFail
	if n > 0 {
		row.L = float64(lines) / float64(len(sample))
		row.T = funcTotal / time.Duration(n)
		row.CompileTime = compileTotal / time.Duration(n)
		row.M = matchTotal / time.Duration(n)
		fn := float64(n)
		row.AvgInterpSteps = float64(steps) / fn
		row.AvgInterpStepsSkipped = float64(skipped) / fn
		row.AvgMatchSteps = float64(work.MatchSteps) / fn
		row.AvgMatchBacktracks = float64(work.MatchBacktracks) / fn
		row.AvgEmbeddings = float64(work.Embeddings) / fn
		row.AvgMethodCombos = float64(work.MethodCombos) / fn
		row.AvgConstraintCombos = float64(work.ConstraintCombos) / fn
		row.AvgEPDGNodes = float64(work.EPDGNodes) / fn
		row.AvgEPDGEdges = float64(work.EPDGEdges) / fn
		if opts.Analysis {
			row.AnalysisTime = analysisTotal / time.Duration(n)
			row.AvgFindings = float64(findings) / fn
		}
	}
	if row.Exhaustive {
		row.DScaled = int64(row.D)
	} else if row.Evaluated > 0 {
		row.DScaled = int64(float64(row.D) / float64(row.Evaluated) * float64(row.S))
	}
	return row
}

// FormatTable renders measured rows next to the paper's published numbers.
func FormatTable(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %7s %9s %3s %3s %9s %9s %10s\n",
		"Assignment", "S", "L", "T", "P", "C", "M", "D(eval)", "D(scaled)")
	for _, r := range rows {
		mode := "sampled"
		if r.Exhaustive {
			mode = "full"
		}
		fmt.Fprintf(&sb, "%-18s %12d %7.2f %9s %3d %3d %9s %4d/%-5d %10d  [%s, n=%d, compile=%s, cache-hits=%d]\n",
			r.Assignment, r.S, r.L, fmtDur(r.T), r.P, r.C, fmtDur(r.M),
			r.D, r.Evaluated, r.DScaled, mode, r.Evaluated, fmtDur(r.CompileTime), r.InterpCacheHits)
		if a := assignments.Get(r.Assignment); a != nil {
			p := a.Paper
			fmt.Fprintf(&sb, "%-18s %12d %7.2f %8.2fs %3d %3d %8.2fs %11s %10d  [paper]\n",
				"  (paper)", p.S, p.L, p.T, p.P, p.C, p.M, "-", int64(p.D))
		}
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// MeasureAll measures every Table I row with the given per-assignment budget
// and default options.
func MeasureAll(maxSubs int) []Row { return MeasureAllOpts(Options{MaxSubs: maxSubs}) }

// MeasureAllOpts measures every Table I row with explicit options.
func MeasureAllOpts(opts Options) []Row {
	var rows []Row
	for _, a := range assignments.All() {
		rows = append(rows, MeasureRowOpts(a, opts))
	}
	return rows
}

// JSONReport is the machine-readable Table I sweep written by
// cmd/tableone -json, consumed by perf-trajectory tooling across PRs.
type JSONReport struct {
	GeneratedAt string `json:"generated_at"` // RFC 3339
	Seed        int64  `json:"seed"`         // sample seed of the sweep
	Workers     int    `json:"workers"`      // batch grading pool size
	Rows        []Row  `json:"rows"`
}

// WriteJSON writes the sweep as indented JSON. Seed and workers are taken
// from the rows (every row of one sweep shares them).
func WriteJSON(w io.Writer, rows []Row, generatedAt time.Time) error {
	rep := JSONReport{
		GeneratedAt: generatedAt.UTC().Format(time.RFC3339),
		Rows:        rows,
	}
	if len(rows) > 0 {
		rep.Seed = rows[0].Seed
		rep.Workers = rows[0].Workers
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
