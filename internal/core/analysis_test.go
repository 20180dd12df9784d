package core_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"semfeed/internal/analysis"
	"semfeed/internal/core"
	"semfeed/internal/obs"
)

// buggySum has the sum pattern plus two defects the analyzers should catch:
// a dead store and a statement after the return.
const buggySum = `int total(int[] a) {
  int s = 0;
  int unused = 42;
  unused = 7;
  for (int i = 0; i < a.length; i++) {
    s += a[i];
  }
  return s;
  s = 0;
}`

func TestGradeWithAnalyzers(t *testing.T) {
	spec := sumSpec("total")
	g := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()})
	rep, err := g.Grade(buggySum, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Matched {
		t.Fatalf("report:\n%s", rep)
	}
	found := map[string]int{}
	for _, d := range rep.Diagnostics {
		found[d.Analyzer]++
		if d.Method != "total" {
			t.Errorf("diagnostic method = %q, want total", d.Method)
		}
	}
	if found["deadstore"] == 0 || found["unreachable"] == 0 {
		t.Fatalf("diagnostics = %v, want deadstore and unreachable findings", rep.Diagnostics)
	}
	if rep.Stats.AnalysisFindings["deadstore"] != found["deadstore"] {
		t.Errorf("Stats.AnalysisFindings = %v, diagnostics counted %v", rep.Stats.AnalysisFindings, found)
	}
	if rep.Stats.AnalysisTime <= 0 {
		t.Error("Stats.AnalysisTime not recorded")
	}

	// The student-facing rendering includes the findings.
	if out := rep.String(); !strings.Contains(out, "Static analysis:") || !strings.Contains(out, "[deadstore]") {
		t.Errorf("rendered report lacks analysis section:\n%s", out)
	}

	// And the JSON report round-trips them.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Diagnostics) != len(rep.Diagnostics) {
		t.Errorf("JSON round trip lost diagnostics: %d != %d", len(back.Diagnostics), len(rep.Diagnostics))
	}
}

func TestGradeAnalyzersDisabledByDefault(t *testing.T) {
	rep, err := core.NewGrader(core.Options{}).Grade(buggySum, sumSpec("total"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 || rep.Stats.AnalysisTime != 0 || rep.Stats.AnalysisFindings != nil {
		t.Fatalf("analysis ran without a driver: %+v", rep.Diagnostics)
	}
	if data, _ := json.Marshal(rep); strings.Contains(string(data), "Diagnostics") {
		t.Error("empty diagnostics should be omitted from report JSON")
	}
}

func TestSpecAnalysisOverridesGraderDefault(t *testing.T) {
	// The grader default runs everything, but the spec opts down to just
	// constcond — so the dead store must not be reported.
	spec := sumSpec("total")
	drv, err := analysis.Default().Driver([]string{"constcond"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Analysis = drv
	g := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()})
	rep, err := g.Grade(buggySum, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		t.Errorf("unexpected diagnostic from %s: %s", d.Analyzer, d.Message)
	}

	// An empty driver is an explicit opt-out even with a grader default.
	spec.Analysis = analysis.NewDriver()
	rep, err = g.Grade(buggySum, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("empty spec driver should disable analysis: %v", rep.Diagnostics)
	}
}

// TestEmptyAnalysisDriverIsOff pins the empty driver (a KB assignment's
// "analyzers": []) to the nil driver's behaviour, even over a grader
// default: no analysis span, no analysis time, no phase slice, no counters.
func TestEmptyAnalysisDriverIsOff(t *testing.T) {
	obs.Enable()
	obs.EnableTracing()
	defer obs.Disable()
	defer obs.DisableTracing()
	spec := sumSpec("total")
	spec.Analysis = analysis.NewDriver()
	before, phaseBefore := obs.TakeSnapshot(), obs.PhaseNS.Value(spec.Name, "analysis")
	rep, err := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()}).Grade(buggySum, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.AnalysisTime != 0 || rep.Stats.AnalysisFindings != nil {
		t.Errorf("empty driver charged analysis: %+v", rep.Stats)
	}
	after := obs.TakeSnapshot()
	if got := after.Counter("semfeed_analysis_runs_total") - before.Counter("semfeed_analysis_runs_total"); got != 0 {
		t.Errorf("semfeed_analysis_runs_total moved by %d", got)
	}
	if got := after.Histograms["semfeed_analysis_seconds"].Count - before.Histograms["semfeed_analysis_seconds"].Count; got != 0 {
		t.Errorf("semfeed_analysis_seconds observed %d times", got)
	}
	if got := obs.PhaseNS.Value(spec.Name, "analysis") - phaseBefore; got != 0 {
		t.Errorf("semfeed_phase_ns analysis slice moved by %d", got)
	}
	for _, sp := range obs.LastTrace().Spans {
		if sp.Name == "analysis" {
			t.Errorf("empty driver opened an analysis span:\n%s", obs.LastTrace().Tree())
		}
	}
}

func TestBatchGraderCarriesDiagnostics(t *testing.T) {
	g := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()})
	bg := core.NewBatchGrader(g, core.BatchOptions{})
	res, _ := bg.GradeAll(context.Background(), sumSpec("total"), []core.Submission{
		{ID: "bad", Src: buggySum},
	})
	if len(res) != 1 || res[0].Report == nil {
		t.Fatalf("results: %+v", res)
	}
	if len(res[0].Report.Diagnostics) == 0 {
		t.Error("batch report lacks diagnostics")
	}
}
