// Package core implements the paper's grading engine: Algorithm 2
// (SubmissionMatching) on top of the EPDG builder, the pattern matcher and
// the constraint checker. This is the public API a course platform embeds.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/constraint"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/inline"
	"semfeed/internal/java/parser"
	"semfeed/internal/match"
	"semfeed/internal/obs"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// PatternUse attaches a pattern to an expected method with its expected
// number of occurrences t̄(q, p). Count 0 declares a "bad pattern" that must
// not appear (e.g. updating a sentinel index twice).
type PatternUse struct {
	Pattern *pattern.Compiled
	Count   int
}

// GroupUse attaches a pattern group (a cluster of alternative patterns with
// the same semantics — the paper's variability extension) to an expected
// method with its expected occurrence count.
type GroupUse struct {
	Group *pattern.Group
	Count int
}

// MethodSpec describes one expected method q: the patterns the instructor
// expects to find in it, pattern groups covering strategy variability, and
// the constraints correlating patterns.
type MethodSpec struct {
	Name        string
	Patterns    []PatternUse
	Groups      []GroupUse
	Constraints []*constraint.Compiled
}

// AssignmentSpec wires patterns and constraints to the expected methods of
// one assignment (the mappings p̄, t̄ and c̄ of Algorithm 2).
type AssignmentSpec struct {
	Name    string
	Methods []MethodSpec

	// Analysis, when non-nil, overrides the grader's default static-analysis
	// driver for this assignment (the KB's per-assignment "analyzers" enable
	// list compiles into it). An empty driver disables analysis outright.
	Analysis *analysis.Driver
}

// PatternCount returns the total number of pattern uses across methods
// (column P of Table I counts per-assignment pattern selections).
func (s *AssignmentSpec) PatternCount() int {
	n := 0
	for _, m := range s.Methods {
		n += len(m.Patterns) + len(m.Groups)
	}
	return n
}

// ConstraintCount returns the total number of constraints across methods.
func (s *AssignmentSpec) ConstraintCount() int {
	n := 0
	for _, m := range s.Methods {
		n += len(m.Constraints)
	}
	return n
}

// Status classifies one feedback comment.
type Status int

// Comment statuses, with the Λ weights of Equation 3.
const (
	Correct     Status = iota // λ = 1
	Incorrect                 // λ = 0.5
	NotExpected               // λ = 0
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Correct:
		return "Correct"
	case Incorrect:
		return "Incorrect"
	default:
		return "NotExpected"
	}
}

// MarshalJSON renders the status by name so JSON reports are readable.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a status name.
func (s *Status) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"Correct"`:
		*s = Correct
	case `"Incorrect"`:
		*s = Incorrect
	case `"NotExpected"`:
		*s = NotExpected
	default:
		return fmt.Errorf("core: unknown status %s", data)
	}
	return nil
}

// Lambda returns the λ weight of the status (Equation 3).
func (s Status) Lambda() float64 {
	switch s {
	case Correct:
		return 1
	case Incorrect:
		return 0.5
	default:
		return 0
	}
}

// Comment is one personalized feedback item.
type Comment struct {
	Method  string // expected method q
	Kind    string // "pattern" or "constraint"
	Source  string // pattern or constraint name
	Status  Status
	Message string   // rendered top-level message
	Details []string // rendered per-node feedback lines
}

// Report is the output of grading one submission.
type Report struct {
	Assignment string
	Comments   []Comment
	Score      float64           // Λ(B)
	MaxScore   float64           // Λ if everything were Correct
	Bindings   map[string]string // expected method -> submission method
	Matched    bool              // false when the expected headers are absent
	Elapsed    time.Duration
	Stats      *Stats `json:"stats"` // per-report cost accounting

	// Diagnostics are pattern-independent static-analysis findings (dead
	// stores, unreachable code, use-before-definition, ...) produced when an
	// analysis driver is enabled; empty otherwise.
	Diagnostics []analysis.Diagnostic `json:"Diagnostics,omitempty"`
}

// Stats is the per-report cost accounting block: where the grade's time went
// (stage durations) and how much work each algorithm performed (Algorithm 1
// candidate extensions and backtracks, Algorithm 2 method combinations,
// constraint combination products). It is serialized inside the report JSON
// so an LMS or a perf harness can track the grading cost per submission.
// Durations are nanoseconds in JSON.
type Stats struct {
	ParseTime      time.Duration `json:"parse_ns"`      // only set on the Grade (source) path
	InlineTime     time.Duration `json:"inline_ns"`     // helper inlining, when enabled
	BuildTime      time.Duration `json:"build_ns"`      // EPDG construction
	MatchTime      time.Duration `json:"match_ns"`      // Algorithm 1 across all bindings
	ConstraintTime time.Duration `json:"constraint_ns"` // constraint checking across all bindings
	AnalysisTime   time.Duration `json:"analysis_ns"`   // static-analysis driver, when enabled
	TotalTime      time.Duration `json:"total_ns"`      // end-to-end grade time

	Methods      int `json:"methods"`       // submission methods with an EPDG
	EPDGNodes    int `json:"epdg_nodes"`    // nodes across those EPDGs
	EPDGEdges    int `json:"epdg_edges"`    // edges across those EPDGs
	MethodCombos int `json:"method_combos"` // expected↔actual bindings scored (Algorithm 2)

	MatchCalls         int64 `json:"match_calls"`           // pattern searches run
	MatchSteps         int64 `json:"match_steps"`           // candidate extensions tried
	MatchBacktracks    int64 `json:"match_backtracks"`      // candidates rejected
	MatchStepLimitHits int64 `json:"match_step_limit_hits"` // searches that hit the step budget
	Embeddings         int64 `json:"embeddings"`            // embeddings found (pre-pruning)
	MatchCacheHits     int64 `json:"match_cache_hits"`      // searches served from the per-grade cache
	MatchCacheMisses   int64 `json:"match_cache_misses"`    // searches computed and cached

	ConstraintChecks int64 `json:"constraint_checks"` // constraint evaluations
	ConstraintCombos int64 `json:"constraint_combos"` // embedding combinations examined

	// AnalysisFindings counts static-analysis diagnostics per analyzer name.
	AnalysisFindings map[string]int `json:"analysis_findings,omitempty"`

	// Functional-testing phase, stamped by RunFuncTests when the caller runs
	// the suite (the CLI's -functest flag, the bench harness). Compile time
	// and cache traffic cover the closure-compilation of submissions into
	// executable programs; zero when the suite did not run.
	FuncTestTime      time.Duration `json:"functest_ns,omitempty"`
	FuncTestCases     int           `json:"functest_cases,omitempty"`
	InterpSteps       int64         `json:"interp_steps,omitempty"`
	InterpCompileTime time.Duration `json:"interp_compile_ns,omitempty"`
	InterpCacheHits   int64         `json:"interp_cache_hits,omitempty"`
	InterpCacheMisses int64         `json:"interp_cache_misses,omitempty"`

	// RequestID is the correlation key of the serving path: the same ID the
	// HTTP layer echoed in X-Request-ID and stamped on the grade's trace, so
	// a stored report joins against its log line and /v1/trace/{id} entry.
	RequestID string `json:"request_id,omitempty"`
}

// addWork folds matcher work counters into the stats.
func (s *Stats) addWork(w *match.Work) {
	s.MatchCalls += w.Calls
	s.MatchSteps += w.Steps
	s.MatchBacktracks += w.Backtracks
	s.MatchStepLimitHits += w.StepLimitHits
	s.Embeddings += w.Embeddings
}

// AllCorrect reports whether every comment is Correct.
func (r *Report) AllCorrect() bool {
	if !r.Matched || len(r.Comments) == 0 {
		return false
	}
	for _, c := range r.Comments {
		if c.Status != Correct {
			return false
		}
	}
	return true
}

// String renders the report as the student would see it.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Assignment %s — score %.1f/%.1f\n", r.Assignment, r.Score, r.MaxScore)
	if !r.Matched {
		sb.WriteString("  Your submission does not provide the expected method header(s); no feedback can be given.\n")
		return sb.String()
	}
	for _, c := range r.Comments {
		fmt.Fprintf(&sb, "  [%s] %s", c.Status, c.Message)
		if c.Message == "" {
			fmt.Fprintf(&sb, "(%s %s)", c.Kind, c.Source)
		}
		sb.WriteByte('\n')
		for _, d := range c.Details {
			fmt.Fprintf(&sb, "      - %s\n", d)
		}
	}
	if len(r.Diagnostics) > 0 {
		sb.WriteString("  Static analysis:\n")
		for _, d := range r.Diagnostics {
			fmt.Fprintf(&sb, "    %s: line %d: [%s] %s\n", d.Severity, d.Line, d.Analyzer, d.Message)
		}
	}
	return sb.String()
}

// Options tune the grader. The zero value applies the defaults.
type Options struct {
	// MatchOptions are passed through to the subgraph matcher.
	MatchOptions match.Options
	// BuildOptions select the EPDG construction conventions (ablations).
	BuildOptions pdg.BuildOpts
	// InlineHelpers expands calls to simple single-return helper methods
	// into the expected methods before building EPDGs, so decomposed
	// submissions still expose the computation to the patterns (the paper's
	// Section VII plan for non-expected methods).
	InlineHelpers bool
	// Analyzers, when non-nil, runs pattern-independent static analysis over
	// every submission method's EPDG and attaches the findings to
	// Report.Diagnostics. Nil disables analysis entirely (zero overhead). A
	// spec's own Analysis driver takes precedence for its assignment.
	Analyzers *analysis.Driver
}

// maxMethodCombos caps the number of expected↔actual method bindings tried.
const maxMethodCombos = 720

// matchCache memoizes Algorithm 1 results within one GradeUnit call. The
// method-binding sweep of Algorithm 2 re-grades the same (pattern, graph)
// pair under every E×A combination that binds a different expected method to
// the same submission method; embeddings depend only on the pair (and the
// fixed match options), so each pair is searched exactly once per grade.
// Embeddings are shared read-only by the feedback and constraint stages, so
// handing the same slice to several bindings is safe. Keys are pointer
// identities: patterns are compiled once per spec and graphs once per grade,
// so pointer equality is exactly value equality here.
type matchCache struct {
	entries      map[matchCacheKey][]match.Embedding
	hits, misses int64
}

type matchCacheKey struct {
	p *pattern.Compiled
	g *pdg.Graph
}

func newMatchCache() *matchCache {
	return &matchCache{entries: map[matchCacheKey][]match.Embedding{}}
}

// find returns the memoized embeddings of p in g, running the matcher on the
// first request for the pair.
func (c *matchCache) find(p *pattern.Compiled, g *pdg.Graph, opts match.Options) (embs []match.Embedding, hit bool) {
	obs.MatchCacheLookupsTotal.Inc()
	k := matchCacheKey{p, g}
	if embs, hit = c.entries[k]; hit {
		c.hits++
		obs.MatchCacheHitsTotal.Inc()
		return embs, true
	}
	embs = match.FindOpts(p, g, opts)
	c.entries[k] = embs
	c.misses++
	obs.MatchCacheMissesTotal.Inc()
	return embs, false
}

// Grader grades submissions against assignment specs.
type Grader struct {
	opts Options
}

// NewGrader returns a grader with the given options.
func NewGrader(opts Options) *Grader { return &Grader{opts: opts} }

// analysisDriver resolves which static-analysis driver applies to spec.
func (g *Grader) analysisDriver(spec *AssignmentSpec) *analysis.Driver {
	if spec.Analysis != nil {
		return spec.Analysis
	}
	return g.opts.Analyzers
}

// Grade parses src and grades it against spec.
func (g *Grader) Grade(src string, spec *AssignmentSpec) (*Report, error) {
	return g.GradeContext(context.Background(), src, spec)
}

// gradeState carries one grade's trace root, report and stats through the
// phases, so Grade (source path, with a parse phase) and GradeUnit (parsed
// path) share the same begin/finish lifecycle and a single root span.
type gradeState struct {
	spec   *AssignmentSpec
	start  time.Time
	stats  *Stats
	report *Report
	root   *obs.Span
	// errored marks a grade that failed before producing a report (parse
	// error): outcome and status "error" instead of "unmatched".
	errored bool
}

// beginGrade opens the trace root and the inflight accounting for one grade.
func (g *Grader) beginGrade(ctx context.Context, spec *AssignmentSpec) *gradeState {
	obs.GradesInflight.Inc()
	gs := &gradeState{
		spec:   spec,
		start:  time.Now(),
		stats:  &Stats{},
		report: &Report{Assignment: spec.Name, Bindings: map[string]string{}},
		root:   obs.StartTrace("grade/" + spec.Name),
	}
	gs.report.Stats = gs.stats
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		gs.stats.RequestID = rid
		gs.root.SetTraceID(rid)
	}
	if tc, ok := obs.TraceContextFrom(ctx); ok && tc.Valid() {
		// The request arrived under a W3C trace context: record it so the
		// exported trace joins its cross-process parent.
		gs.root.SetRemoteParent(tc.Traceparent())
	}
	return gs
}

// endPhase closes one phase span and attributes its cost: the span gets the
// phase tag, and semfeed_phase_ns{assignment,phase} accumulates the
// nanoseconds (the exposition-side view of BENCH_tableone's *_ns columns).
func (gs *gradeState) endPhase(sp *obs.Span, phase string, d time.Duration) {
	sp.SetAttr("phase", phase)
	sp.End()
	obs.PhaseNS.Add(d.Nanoseconds(), gs.spec.Name, phase)
}

// finish seals the grade: totals, terminal metrics, outcome classification
// and the root span.
func (gs *gradeState) finish(ctx context.Context) {
	gs.report.Elapsed = time.Since(gs.start)
	gs.stats.TotalTime = gs.report.Elapsed
	obs.GradesInflight.Dec()
	obs.GradeSeconds.ObserveDuration(gs.report.Elapsed)
	obs.GradeScore.Observe(gs.report.Score)
	obs.GradeMethodCombos.Add(int64(gs.stats.MethodCombos))
	if gs.report.Matched {
		obs.GradeMatchedTotal.Inc()
	} else {
		obs.GradeUnmatchedTotal.Inc()
	}
	status := "ok"
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		status = "timeout"
		gs.root.SetOutcome("timeout")
	case ctx.Err() == context.Canceled:
		status = "canceled"
		gs.root.SetOutcome("canceled")
	case gs.errored:
		status = "error"
		gs.root.SetOutcome("error")
	case !gs.report.Matched:
		status = "unmatched"
	}
	obs.GradesTotal.Add(1, gs.spec.Name, status)
	gs.root.SetAttr("score", fmt.Sprintf("%.1f/%.1f", gs.report.Score, gs.report.MaxScore))
	gs.root.SetAttrInt("method_combos", int64(gs.stats.MethodCombos))
	gs.root.SetAttrInt("match_steps", gs.stats.MatchSteps)
	gs.root.End()
}

// GradeContext is Grade under a context: a cancelled or expired ctx stops
// the grade early — the deadline propagates into Algorithm 1's search loop —
// and ctx.Err() is returned alongside the (partial) report. The serving path
// uses this to bound per-request latency. The parse runs inside the grade's
// trace as its own phase span, so source-path traces attribute the full
// request.
func (g *Grader) GradeContext(ctx context.Context, src string, spec *AssignmentSpec) (*Report, error) {
	gs := g.beginGrade(ctx, spec)
	defer gs.finish(ctx)
	sp := gs.root.Child("parse")
	t0 := time.Now()
	unit, err := parser.Parse(src)
	gs.stats.ParseTime = time.Since(t0)
	sp.SetAttrInt("bytes", int64(len(src)))
	gs.endPhase(sp, "parse", gs.stats.ParseTime)
	if err != nil {
		gs.errored = true
		return nil, err
	}
	g.gradeUnit(ctx, unit, spec, gs)
	return gs.report, ctx.Err()
}

// GradeUnit grades a parsed compilation unit against spec (Algorithm 2).
func (g *Grader) GradeUnit(unit *ast.CompilationUnit, spec *AssignmentSpec) *Report {
	return g.GradeUnitContext(context.Background(), unit, spec)
}

// GradeUnitContext is GradeUnit under a context. Cancellation is polled
// between method bindings and inside the matcher's candidate-extension loop,
// so even a single pathological binding is cut promptly; the report produced
// so far is returned (check ctx.Err() to distinguish a complete grade).
func (g *Grader) GradeUnitContext(ctx context.Context, unit *ast.CompilationUnit, spec *AssignmentSpec) *Report {
	gs := g.beginGrade(ctx, spec)
	defer gs.finish(ctx)
	g.gradeUnit(ctx, unit, spec, gs)
	return gs.report
}

// gradeUnit runs Algorithm 2 over a parsed unit inside an open grade: the
// phases after parse, each under its own child span of gs.root.
func (g *Grader) gradeUnit(ctx context.Context, unit *ast.CompilationUnit, spec *AssignmentSpec, gs *gradeState) {
	stats, report := gs.stats, gs.report
	for _, m := range spec.Methods {
		report.MaxScore += float64(len(m.Patterns) + len(m.Groups) + len(m.Constraints))
	}

	// Step 1: extract the EPDG of every submission method, optionally
	// inlining helper calls first.
	if g.opts.InlineHelpers {
		sp := gs.root.Child("inline_helpers")
		t0 := time.Now()
		keep := map[string]bool{}
		for _, m := range spec.Methods {
			keep[m.Name] = true
		}
		unit = inline.Expand(unit, keep)
		stats.InlineTime = time.Since(t0)
		gs.endPhase(sp, "inline", stats.InlineTime)
	}
	buildSp := gs.root.Child("build_epdg")
	t0 := time.Now()
	graphs := pdg.BuildAllWith(unit, g.opts.BuildOptions)
	stats.BuildTime = time.Since(t0)
	stats.Methods = len(graphs)
	for _, gr := range graphs {
		stats.EPDGNodes += len(gr.Nodes)
		stats.EPDGEdges += len(gr.Edges)
	}
	buildSp.SetAttrInt("methods", int64(stats.Methods))
	buildSp.SetAttrInt("nodes", int64(stats.EPDGNodes))
	buildSp.SetAttrInt("edges", int64(stats.EPDGEdges))
	gs.endPhase(buildSp, "build", stats.BuildTime)
	if len(graphs) == 0 {
		return
	}

	// Step 1b: pattern-independent static analysis over the fresh EPDGs. The
	// driver is per-assignment when the spec carries one, else the grader
	// default; nil means disabled and costs nothing.
	if driver := g.analysisDriver(spec); driver != nil {
		sp := gs.root.Child("analysis")
		t0 := time.Now()
		report.Diagnostics = driver.Run(graphs)
		stats.AnalysisTime = time.Since(t0)
		stats.AnalysisFindings = analysis.Counts(report.Diagnostics)
		sp.SetAttrInt("diagnostics", int64(len(report.Diagnostics)))
		gs.endPhase(sp, "analysis", stats.AnalysisTime)
	}

	methodNames := make([]string, 0, len(graphs))
	for name := range graphs {
		methodNames = append(methodNames, name)
	}
	sort.Strings(methodNames)

	// Step 2: try every combination of expected and existing methods, keep
	// the one maximizing Λ. The match cache spans the whole sweep: a
	// (pattern, graph) pair is searched once even when E×A bindings revisit
	// it under different expected-method names. The whole sweep is one match
	// phase span; the per-binding spans hang under it.
	cache := newMatchCache()
	sweepSp := gs.root.Child("match_sweep")
	sweepStart := time.Now()
	best := -1.0
	for _, binding := range g.bindings(spec, methodNames) {
		if ctx.Err() != nil {
			break
		}
		stats.MethodCombos++
		bindSp := sweepSp.Child("binding")
		if bindSp != nil {
			bindSp.SetAttr("methods", renderBinding(binding))
		}
		comments, score := g.gradeBinding(ctx, spec, graphs, binding, cache, stats, bindSp)
		if bindSp != nil {
			bindSp.SetAttr("score", fmt.Sprintf("%.1f", score))
		}
		bindSp.End()
		if score > best {
			best = score
			report.Comments = comments
			report.Score = score
			report.Bindings = binding
			report.Matched = true
		}
	}
	stats.MatchCacheHits = cache.hits
	stats.MatchCacheMisses = cache.misses
	sweepSp.SetAttrInt("combos", int64(stats.MethodCombos))
	sweepSp.SetAttrInt("match_calls", stats.MatchCalls)
	sweepSp.SetAttrInt("match_steps", stats.MatchSteps)
	sweepSp.SetAttrInt("backtracks", stats.MatchBacktracks)
	sweepSp.SetAttrInt("cache_hits", stats.MatchCacheHits)
	sweepSp.SetAttrInt("cache_misses", stats.MatchCacheMisses)
	gs.endPhase(sweepSp, "match", stats.MatchTime)
	// Constraint checking is interleaved with matching inside the sweep; its
	// aggregate cost gets a summary span so the phase tree attributes it
	// separately from Algorithm 1 search time.
	gs.root.RecordChild("constraint_check", sweepStart, stats.ConstraintTime,
		obs.Attr{Key: "phase", Value: "constraint"},
		obs.Attr{Key: "checks", Value: strconv.FormatInt(stats.ConstraintChecks, 10)},
		obs.Attr{Key: "combos", Value: strconv.FormatInt(stats.ConstraintCombos, 10)})
	obs.PhaseNS.Add(stats.ConstraintTime.Nanoseconds(), spec.Name, "constraint")
}

// renderBinding renders an expected→actual method binding for span attrs.
func renderBinding(binding map[string]string) string {
	keys := make([]string, 0, len(binding))
	for k := range binding {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k + "→" + binding[k])
	}
	return sb.String()
}

// bindings enumerates injective mappings from expected method names to
// submission method names. When every expected name is present verbatim the
// identity binding is tried first (the header-enforcement fast path the
// paper describes); remaining permutations cover renamed methods.
func (g *Grader) bindings(spec *AssignmentSpec, methods []string) []map[string]string {
	expected := make([]string, len(spec.Methods))
	for i, m := range spec.Methods {
		expected[i] = m.Name
	}
	if len(expected) > len(methods) {
		return nil
	}
	have := map[string]bool{}
	for _, m := range methods {
		have[m] = true
	}
	var out []map[string]string
	identity := true
	for _, q := range expected {
		if !have[q] {
			identity = false
			break
		}
	}
	if identity {
		b := map[string]string{}
		for _, q := range expected {
			b[q] = q
		}
		return []map[string]string{b}
	}

	used := make([]bool, len(methods))
	cur := map[string]string{}
	var rec func(i int)
	rec = func(i int) {
		if len(out) >= maxMethodCombos {
			return
		}
		if i == len(expected) {
			b := make(map[string]string, len(cur))
			for k, v := range cur {
				b[k] = v
			}
			out = append(out, b)
			return
		}
		for j, h := range methods {
			if used[j] {
				continue
			}
			used[j] = true
			cur[expected[i]] = h
			rec(i + 1)
			delete(cur, expected[i])
			used[j] = false
		}
	}
	rec(0)
	return out
}

// gradeBinding runs steps 2.1 and 2.2 of Algorithm 2 for one method binding
// and returns the comments with their Λ score. Matcher and constraint work
// is accumulated into st; spans hang off parent when tracing is on.
func (g *Grader) gradeBinding(ctx context.Context, spec *AssignmentSpec, graphs map[string]*pdg.Graph, binding map[string]string, cache *matchCache, st *Stats, parent *obs.Span) ([]Comment, float64) {
	mopts := g.opts.MatchOptions
	work := &match.Work{}
	mopts.Work = work
	if ctx.Done() != nil {
		mopts.Done = ctx.Done()
	}
	var comments []Comment
	for _, mspec := range spec.Methods {
		graph := graphs[binding[mspec.Name]]
		if graph == nil {
			continue
		}
		embs := map[string][]match.Embedding{}
		statuses := map[string]Status{}
		// 2.1: match patterns.
		for _, use := range mspec.Patterns {
			sp := parent.Child("match:" + use.Pattern.Name())
			stepsBefore := work.Steps
			t0 := time.Now()
			m, hit := cache.find(use.Pattern, graph, mopts)
			if !hit {
				st.MatchTime += time.Since(t0)
			}
			sp.SetAttrInt("embeddings", int64(len(m)))
			sp.SetAttrInt("steps", work.Steps-stepsBefore)
			if hit {
				sp.SetAttr("cached", "true")
			}
			sp.End()
			embs[use.Pattern.Name()] = m
			c := provideFeedback(mspec.Name, use, m)
			statuses[use.Pattern.Name()] = c.Status
			comments = append(comments, c)
		}
		// 2.1b: match pattern groups (the variability extension): every
		// member is tried, the best-scoring one provides the feedback, and
		// its embeddings become available to constraints under its own name.
		for _, gu := range mspec.Groups {
			sp := parent.Child("group:" + gu.Group.Name)
			t0 := time.Now()
			c := g.groupFeedback(mspec.Name, gu, graph, embs, cache, mopts)
			st.MatchTime += time.Since(t0)
			sp.End()
			statuses[gu.Group.Name] = c.Status
			comments = append(comments, c)
		}
		// 2.2: match constraints.
		for _, con := range mspec.Constraints {
			sp := parent.Child("constraint:" + con.Name())
			t0 := time.Now()
			c, combos := checkConstraint(mspec.Name, con, graph, embs, statuses)
			st.ConstraintTime += time.Since(t0)
			st.ConstraintChecks++
			st.ConstraintCombos += int64(combos)
			sp.SetAttrInt("combos", int64(combos))
			sp.End()
			comments = append(comments, c)
		}
	}
	st.addWork(work)
	score := 0.0
	for _, c := range comments {
		score += c.Status.Lambda()
	}
	return comments, score
}

// groupFeedback evaluates one pattern group: each member is matched, the
// best-scoring comment wins, and the winning member's embeddings are stored
// so constraints can correlate against it.
func (g *Grader) groupFeedback(method string, gu GroupUse, graph *pdg.Graph, embs map[string][]match.Embedding, cache *matchCache, mopts match.Options) Comment {
	var best Comment
	var bestEmbs []match.Embedding
	var bestMember string
	for i, member := range gu.Group.Members {
		m, _ := cache.find(member, graph, mopts)
		c := provideFeedback(method, PatternUse{Pattern: member, Count: gu.Count}, m)
		if i == 0 || c.Status.Lambda() > best.Status.Lambda() {
			best, bestEmbs, bestMember = c, m, member.Name()
		}
	}
	embs[bestMember] = bestEmbs
	best.Kind = "group"
	best.Source = gu.Group.Name
	if best.Status == NotExpected && len(bestEmbs) < gu.Count && gu.Group.Missing != "" {
		best.Message = pattern.RenderFeedback(gu.Group.Missing, nil)
	}
	return best
}

// provideFeedback implements ProvideFeedback of Algorithm 2 for one pattern.
func provideFeedback(method string, use PatternUse, embs []match.Embedding) Comment {
	p := use.Pattern
	c := Comment{Method: method, Kind: "pattern", Source: p.Name()}
	switch {
	case len(embs) != use.Count:
		c.Status = NotExpected
		switch {
		case use.Count == 0:
			// A bad pattern was found: its Missing message is the warning.
			c.Message = pattern.RenderFeedback(p.Source.Missing, embs[0].Gamma)
		case len(embs) < use.Count:
			c.Message = pattern.RenderFeedback(p.Source.Missing, nil)
		default:
			c.Message = fmt.Sprintf("Found %d occurrences of %q but expected %d — check for duplicated or conflated logic",
				len(embs), p.Source.Description, use.Count)
		}
	default:
		if use.Count == 0 {
			// A bad pattern that is indeed absent.
			c.Status = Correct
			c.Message = pattern.RenderFeedback(p.Source.Present, nil)
			return c
		}
		allCorrect := true
		for _, e := range embs {
			if !e.AllCorrect() {
				allCorrect = false
				break
			}
		}
		if allCorrect {
			c.Status = Correct
		} else {
			c.Status = Incorrect
		}
		c.Message = pattern.RenderFeedback(p.Source.Present, embs[0].Gamma)
		c.Details = nodeDetails(p, embs)
	}
	return c
}

// nodeDetails renders per-node feedback for the found embeddings, deduped.
func nodeDetails(p *pattern.Compiled, embs []match.Embedding) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, e := range embs {
		for i, n := range p.Nodes {
			if e.Approx[i] {
				add(pattern.RenderFeedback(n.Feedback.Incorrect, e.Gamma))
			} else {
				add(pattern.RenderFeedback(n.Feedback.Correct, e.Gamma))
			}
		}
	}
	return out
}

// checkConstraint implements ConstraintMatching of Algorithm 2: NotExpected
// when any referenced pattern was NotExpected, else the constraint check.
// The second return value is the number of embedding combinations examined.
func checkConstraint(method string, con *constraint.Compiled, graph *pdg.Graph, embs map[string][]match.Embedding, statuses map[string]Status) (Comment, int) {
	c := Comment{Method: method, Kind: "constraint", Source: con.Name()}
	for _, pname := range con.Patterns() {
		if st, ok := statuses[pname]; ok && st == NotExpected {
			c.Status = NotExpected
			return c, 0
		}
	}
	res := con.Check(graph, embs)
	switch res.Status {
	case constraint.Correct:
		c.Status = Correct
	case constraint.Incorrect:
		c.Status = Incorrect
	default:
		c.Status = NotExpected
	}
	c.Message = res.Message()
	return c, res.Combos
}
