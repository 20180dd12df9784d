package semfeed

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"semfeed/internal/analysis"
	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
	"semfeed/internal/match"
	"semfeed/internal/obs"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// The root package re-exports the library's public surface so downstream
// users import just "semfeed". The internal packages remain the homes of the
// implementations; see their docs for details.

// Grading engine (Algorithm 2).
type (
	// Grader grades submissions against assignment specs.
	Grader = core.Grader
	// Options tune the grader, including the future-work extensions
	// (InlineHelpers) and the EPDG construction ablations (BuildOptions).
	Options = core.Options
	// AssignmentSpec wires patterns, groups and constraints to the expected
	// methods of one assignment.
	AssignmentSpec = core.AssignmentSpec
	// MethodSpec describes one expected method.
	MethodSpec = core.MethodSpec
	// PatternUse attaches a pattern with its expected occurrence count;
	// count 0 declares a bad pattern.
	PatternUse = core.PatternUse
	// GroupUse attaches a pattern variability group.
	GroupUse = core.GroupUse
	// Strategy is a reusable pattern/constraint bundle enforcing one
	// algorithmic approach.
	Strategy = core.Strategy
	// Report is the personalized feedback for one submission.
	Report = core.Report
	// Comment is one feedback item of a report.
	Comment = core.Comment
	// Status classifies a comment: Correct, Incorrect or NotExpected.
	Status = core.Status
	// ReportStats is the per-report cost accounting block: stage durations
	// plus matcher and constraint work counts, serialized as the report's
	// "stats" JSON field.
	ReportStats = core.Stats
)

// Static analysis: pattern-independent dataflow diagnostics over submission
// EPDGs, attached to reports when an analysis driver is enabled via
// Options.Analyzers (or per assignment via AssignmentSpec.Analysis).
type (
	// Diagnostic is one static-analysis finding.
	Diagnostic = analysis.Diagnostic
	// AnalysisDriver runs a fixed analyzer set over every method EPDG.
	AnalysisDriver = analysis.Driver
	// AnalyzerRegistry names available analyzers and builds drivers over
	// enable/disable subsets.
	AnalyzerRegistry = analysis.Registry
)

// DefaultAnalyzers returns a driver running the full built-in analyzer suite
// (use-before-definition, dead store, unreachable code, constant condition,
// non-advancing loop, missing return).
func DefaultAnalyzers() *AnalysisDriver { return analysis.DefaultDriver() }

// Analyzers returns the registry of built-in analyzers, for enable/disable
// subsets via its Driver method.
func Analyzers() *AnalyzerRegistry { return analysis.Default() }

// Batch grading engine: grade whole submission loads on a bounded worker
// pool with per-submission error isolation and context cancellation.
type (
	// BatchGrader grades submission batches concurrently.
	BatchGrader = core.BatchGrader
	// BatchOptions tune the batch engine (worker count, result streaming).
	BatchOptions = core.BatchOptions
	// Submission is one batch work item: an ID plus Java source.
	Submission = core.Submission
	// BatchResult is one submission's report or isolated failure.
	BatchResult = core.BatchResult
	// BatchStats aggregates one GradeAll run (throughput, failures, wall time).
	BatchStats = core.BatchStats
)

// NewBatchGrader wraps a grader in the batch engine.
func NewBatchGrader(g *Grader, opts BatchOptions) *BatchGrader {
	return core.NewBatchGrader(g, opts)
}

// Observability: the pipeline metrics registry and the span tracer. Both are
// off by default and every hook is a zero-allocation no-op until enabled, so
// embedding platforms pay nothing unless they opt in.
type (
	// Metrics is a point-in-time snapshot of every pipeline metric
	// (counters, gauges and histogram summaries with p50/p95/p99).
	Metrics = obs.Snapshot
	// Trace is one recorded span tree (e.g. a single Grade call).
	Trace = obs.TraceData
	// TraceSpan is one completed span of a Trace.
	TraceSpan = obs.SpanData
	// TraceContext is a W3C Trace Context (traceparent) identity: trace ID,
	// parent span ID and the sampled flag.
	TraceContext = obs.TraceContext
	// SpanExporter receives every completed trace for out-of-process export.
	SpanExporter = obs.SpanExporter
	// JSONLTraceExporter appends completed traces to a JSON-lines file with
	// size-based rotation, falling back to an in-memory ring on write errors.
	JSONLTraceExporter = obs.JSONLExporter
	// RingTraceExporter retains the last N completed traces in memory.
	RingTraceExporter = obs.RingExporter
	// MetricDesc describes one registered metric family (name, type, label
	// keys, help) — the schema behind the generated metrics reference.
	MetricDesc = obs.MetricDesc
	// BuildVersion is the binary's build/VCS identity from debug.ReadBuildInfo.
	BuildVersion = obs.BuildInfo
)

// EnableMetrics turns on pipeline metric collection.
func EnableMetrics() { obs.Enable() }

// DisableMetrics turns pipeline metric collection back off.
func DisableMetrics() { obs.Disable() }

// EnableTracing turns on span recording; each Grade call then records a span
// tree retrievable with LastTrace.
func EnableTracing() { obs.EnableTracing() }

// DisableTracing turns span recording back off.
func DisableTracing() { obs.DisableTracing() }

// SnapshotMetrics copies the current pipeline metric values.
func SnapshotMetrics() Metrics { return obs.TakeSnapshot() }

// WriteMetricsProm writes the pipeline metrics in Prometheus text format.
func WriteMetricsProm(w io.Writer) error { return obs.WriteProm(w) }

// MetricsHandler serves the pipeline metrics in Prometheus text format.
func MetricsHandler() http.Handler { return obs.Handler() }

// MetricsMux serves the full observability endpoint set: /metrics
// (Prometheus text), /metrics.json (JSON snapshot), /trace (latest span
// tree; ?format=json for the structure) and /statusz (rolling SLO windows
// plus runtime state).
func MetricsMux() *http.ServeMux { return obs.Mux() }

// LastTrace returns the most recently recorded span tree, or nil.
func LastTrace() *Trace { return obs.LastTrace() }

// TraceByID returns the retained span tree with the given ID, or nil. On the
// serving path the ID is the request ID echoed in X-Request-ID.
func TraceByID(id string) *Trace { return obs.TraceByID(id) }

// SetStructuredLogger installs the process-wide structured event logger used
// by the grading service (one summary line per grade/batch/shed/reload/drain
// event). Pass nil to restore the discarding default.
func SetStructuredLogger(l *slog.Logger) { obs.SetLogger(l) }

// WithRequestID returns a context carrying a request correlation ID; grades
// run under it stamp the ID on their trace and Report.Stats.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// SetTraceExporter installs the process-wide span exporter invoked with every
// completed trace (after retention classification, so Retained and the final
// trace ID are populated). Pass nil to disable export. It returns the
// previously installed exporter so callers can restore it.
func SetTraceExporter(e SpanExporter) SpanExporter { return obs.SetSpanExporter(e) }

// NewJSONLTraceExporter opens (or creates) a JSON-lines trace export file.
// maxBytes bounds the file size before rotation to path+".1"; 0 selects the
// 64 MiB default.
func NewJSONLTraceExporter(path string, maxBytes int64) (*JSONLTraceExporter, error) {
	return obs.NewJSONLExporter(path, maxBytes)
}

// ParseTraceparent parses a W3C traceparent header value. ok is false when
// the header is absent or malformed; malformed headers are ignored, never an
// error, per the spec.
func ParseTraceparent(h string) (TraceContext, bool) { return obs.ParseTraceparent(h) }

// WithTraceContext returns a context carrying an upstream trace identity;
// grades run under it record the traceparent on their trace so cross-service
// tooling can join the spans.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return obs.WithTraceContext(ctx, tc)
}

// OutboundTraceparent renders the traceparent header value a client should
// send on outgoing requests made under ctx, minting a fresh identity when the
// context carries none.
func OutboundTraceparent(ctx context.Context) string { return obs.OutboundTraceparent(ctx) }

// DescribeMetrics lists every registered metric family (name, type, label
// keys, help), in exposition order — the source of the generated metrics
// reference in README.md.
func DescribeMetrics() []MetricDesc { return obs.Describe() }

// ReadBuildVersion reports the binary's build identity (VCS revision, Go
// version, module path) as embedded by the Go toolchain.
func ReadBuildVersion() BuildVersion { return obs.GetBuildInfo() }

// Comment statuses with their Λ weights (Equation 3 of the paper).
const (
	Correct     = core.Correct
	Incorrect   = core.Incorrect
	NotExpected = core.NotExpected
)

// NewGrader returns a grader with the given options.
func NewGrader(opts Options) *Grader { return core.NewGrader(opts) }

// Patterns (Definitions 4-7).
type (
	// Pattern is the serializable pattern form.
	Pattern = pattern.Pattern
	// PatternNode is one node of a pattern.
	PatternNode = pattern.Node
	// PatternEdge is one edge of a pattern.
	PatternEdge = pattern.Edge
	// NodeFeedback holds a node's correct/incorrect feedback templates.
	NodeFeedback = pattern.NodeFeedback
	// CompiledPattern is a validated, matchable pattern.
	CompiledPattern = pattern.Compiled
	// PatternGroup clusters alternative patterns with the same semantics.
	PatternGroup = pattern.Group
	// Embedding is a match of a pattern in an EPDG (ι plus γ).
	Embedding = match.Embedding
)

// CompilePattern validates a pattern and compiles its templates.
func CompilePattern(p *Pattern) (*CompiledPattern, error) { return pattern.Compile(p) }

// MustCompilePattern is CompilePattern that panics on error.
func MustCompilePattern(p *Pattern) *CompiledPattern { return pattern.MustCompile(p) }

// NewPatternGroup builds a variability group from alternative patterns.
func NewPatternGroup(name, description, missing string, members ...*CompiledPattern) (*PatternGroup, error) {
	return pattern.NewGroup(name, description, missing, members...)
}

// FindEmbeddings runs Algorithm 1: all embeddings of p in g.
func FindEmbeddings(p *CompiledPattern, g *Graph) []Embedding { return match.Find(p, g) }

// Constraints (Definitions 8-10).
type (
	// Constraint is the serializable constraint form.
	Constraint = constraint.Constraint
	// CompiledConstraint is a validated constraint bound to patterns.
	CompiledConstraint = constraint.Compiled
	// ConstraintFeedback holds a constraint's satisfied/violated messages.
	ConstraintFeedback = constraint.Feedback
)

// Constraint kinds.
const (
	Equality      = constraint.Equality
	EdgeExistence = constraint.EdgeExistence
	Containment   = constraint.Containment
)

// CompileConstraint validates a constraint against a pattern registry.
func CompileConstraint(c *Constraint, patterns map[string]*CompiledPattern) (*CompiledConstraint, error) {
	return constraint.Compile(c, patterns)
}

// Extended program dependence graphs (Definitions 1-3).
type (
	// Graph is the EPDG of one method.
	Graph = pdg.Graph
	// GraphNode is one typed expression node.
	GraphNode = pdg.Node
	// BuildOpts select the EPDG construction conventions.
	BuildOpts = pdg.BuildOpts
)

// ParseJava parses a Java-subset compilation unit.
var ParseJava = parser.Parse

// BuildEPDGs constructs the EPDG of every method in src, keyed by name.
func BuildEPDGs(src string) (map[string]*Graph, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return pdg.BuildAll(unit), nil
}

// Functional testing and execution.
type (
	// TestSuite is a functional-test suite (the evaluation's ground truth).
	TestSuite = functest.Suite
	// TestCase is one functional test.
	TestCase = functest.Case
	// Verdict is the outcome of running a suite.
	Verdict = functest.Verdict
	// Value is a runtime value of the Java-subset interpreter.
	Value = interp.Value
	// RunConfig configures an interpreter run.
	RunConfig = interp.Config
)

// NewIntArray builds a Java int[] value for interpreter arguments.
func NewIntArray(vals ...int64) Value {
	arr := &interp.Array{Elem: "int"}
	for _, v := range vals {
		arr.Elems = append(arr.Elems, v)
	}
	return arr
}

// NewDoubleArray builds a Java double[] value for interpreter arguments.
func NewDoubleArray(vals ...float64) Value {
	arr := &interp.Array{Elem: "double"}
	for _, v := range vals {
		arr.Elems = append(arr.Elems, v)
	}
	return arr
}

// NewStringArray builds a Java String[] value for interpreter arguments.
func NewStringArray(vals ...string) Value {
	arr := &interp.Array{Elem: "String"}
	for _, v := range vals {
		arr.Elems = append(arr.Elems, v)
	}
	return arr
}

// RunJava executes the entry method of src with the given arguments. A run
// that fails at runtime returns its Result (output so far, steps taken, no
// return value) next to the error; a syntax error returns none. A run whose
// loop state recurs is fast-forwarded to its step limit and reports the
// Steps of the full run.
func RunJava(src, entry string, args []Value, cfg RunConfig) (*interp.Result, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return interp.Run(unit, entry, args, cfg)
}
