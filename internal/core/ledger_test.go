package core_test

import (
	"context"
	"go/build"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/obs"
)

// ledgerCounters maps each plain per-grade counter family to the Stats
// quantity one grade adds to it. Analysis families count only grades whose
// analysis phase ran; with analysis.DefaultDriver that is every grade with
// an EPDG.
var ledgerCounters = map[string]func(r *core.Report) int64{
	"semfeed_grade_matched_total":        func(r *core.Report) int64 { return b2i(r.Matched) },
	"semfeed_grade_unmatched_total":      func(r *core.Report) int64 { return b2i(!r.Matched) },
	"semfeed_grade_method_combos_total":  func(r *core.Report) int64 { return int64(r.Stats.MethodCombos) },
	"semfeed_epdg_builds_total":          func(r *core.Report) int64 { return int64(r.Stats.Methods) },
	"semfeed_epdg_nodes_total":           func(r *core.Report) int64 { return int64(r.Stats.EPDGNodes) },
	"semfeed_epdg_edges_total":           func(r *core.Report) int64 { return int64(r.Stats.EPDGEdges) },
	"semfeed_match_calls_total":          func(r *core.Report) int64 { return r.Stats.MatchCalls },
	"semfeed_match_steps_total":          func(r *core.Report) int64 { return r.Stats.MatchSteps },
	"semfeed_match_backtracks_total":     func(r *core.Report) int64 { return r.Stats.MatchBacktracks },
	"semfeed_match_embeddings_total":     func(r *core.Report) int64 { return r.Stats.Embeddings },
	"semfeed_match_step_limit_total":     func(r *core.Report) int64 { return r.Stats.MatchStepLimitHits },
	"semfeed_match_cache_lookups_total":  func(r *core.Report) int64 { return r.Stats.MatchCacheHits + r.Stats.MatchCacheMisses },
	"semfeed_match_cache_hits_total":     func(r *core.Report) int64 { return r.Stats.MatchCacheHits },
	"semfeed_match_cache_misses_total":   func(r *core.Report) int64 { return r.Stats.MatchCacheMisses },
	"semfeed_constraint_checks_total":    func(r *core.Report) int64 { return r.Stats.ConstraintChecks },
	"semfeed_constraint_combos_total":    func(r *core.Report) int64 { return r.Stats.ConstraintCombos },
	"semfeed_analysis_runs_total":        func(r *core.Report) int64 { return b2i(r.Stats.Methods > 0) },
	"semfeed_analysis_graphs_total":      func(r *core.Report) int64 { return int64(r.Stats.Methods) },
	"semfeed_analysis_diagnostics_total": func(r *core.Report) int64 { return int64(len(r.Diagnostics)) },
}

// ledgerPhases maps each semfeed_phase_ns phase label to its Stats field.
var ledgerPhases = map[string]func(s *core.Stats) int64{
	"parse":      func(s *core.Stats) int64 { return s.ParseTime.Nanoseconds() },
	"inline":     func(s *core.Stats) int64 { return s.InlineTime.Nanoseconds() },
	"build":      func(s *core.Stats) int64 { return s.BuildTime.Nanoseconds() },
	"analysis":   func(s *core.Stats) int64 { return s.AnalysisTime.Nanoseconds() },
	"match":      func(s *core.Stats) int64 { return s.MatchTime.Nanoseconds() },
	"constraint": func(s *core.Stats) int64 { return s.ConstraintTime.Nanoseconds() },
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestGradeMetricsEqualStats pins Stats as the one record of a grade's
// work: with metrics on, every per-grade family moves by exactly the sum of
// its Stats field over the grades run, and so does every semfeed_phase_ns
// slice. The seed-1 Table I sample of every assignment is graded through
// Grader.Grade and again through a two-worker BatchGrader.GradeUnits.
func TestGradeMetricsEqualStats(t *testing.T) {
	if testing.Short() {
		t.Skip("grades the seed-1 sample twice")
	}
	obs.Enable()
	defer obs.Disable()

	grader := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()})
	batch := core.NewBatchGrader(grader, core.BatchOptions{Workers: 2})
	type sample struct {
		srcs  []string
		units []*ast.CompilationUnit
	}
	samples := map[string]sample{}
	for _, a := range assignments.All() {
		var s sample
		for _, k := range a.Synth.SampleSeed(200, 1) {
			src := a.Synth.Render(k)
			unit, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			s.srcs, s.units = append(s.srcs, src), append(s.units, unit)
		}
		samples[a.ID] = s
	}

	for _, path := range []string{"Grade", "GradeUnits"} {
		before := obs.TakeSnapshot()
		phasesBefore := phaseSlices()
		gradesBefore := gradeSlices()
		counters := map[string]int64{}
		phases := map[[2]string]int64{}
		grades := map[[2]string]int64{}
		var n int64
		var elapsed, analysisTime, score float64
		for _, a := range assignments.All() {
			var reports []*core.Report
			if path == "Grade" {
				for _, src := range samples[a.ID].srcs {
					rep, err := grader.Grade(src, a.Spec)
					if err != nil {
						t.Fatalf("%s: %v", a.ID, err)
					}
					reports = append(reports, rep)
				}
			} else {
				results, _ := batch.GradeUnits(context.Background(), a.Spec, samples[a.ID].units)
				for _, res := range results {
					if res.Err != nil {
						t.Fatalf("%s: %v", a.ID, res.Err)
					}
					reports = append(reports, res.Report)
				}
			}
			for _, r := range reports {
				n++
				for name, of := range ledgerCounters {
					counters[name] += of(r)
				}
				for phase, of := range ledgerPhases {
					phases[[2]string{a.ID, phase}] += of(r.Stats)
				}
				status := "ok"
				if !r.Matched {
					status = "unmatched"
				}
				grades[[2]string{a.ID, status}]++
				elapsed += r.Elapsed.Seconds()
				analysisTime += r.Stats.AnalysisTime.Seconds()
				score += r.Score
			}
		}
		after := obs.TakeSnapshot()

		for name, want := range counters {
			if got := after.Counter(name) - before.Counter(name); got != want {
				t.Errorf("%s: %s moved by %d, Stats sum to %d", path, name, got, want)
			}
		}
		for key, got := range deltas(phasesBefore, phaseSlices()) {
			if want := phases[key]; got != want {
				t.Errorf("%s: semfeed_phase_ns%v moved by %d, Stats sum to %d", path, key, got, want)
			}
		}
		for key, got := range deltas(gradesBefore, gradeSlices()) {
			if want := grades[key]; got != want {
				t.Errorf("%s: semfeed_grades_total%v moved by %d, reports count %d", path, key, got, want)
			}
		}
		for _, h := range []struct {
			name       string
			count      int64
			sum        float64
			inaccuracy float64
		}{
			{"semfeed_grade_seconds", n, elapsed, 1e-6},
			{"semfeed_grade_score", n, score, 0},
			{"semfeed_analysis_seconds", counters["semfeed_analysis_runs_total"], analysisTime, 1e-6},
		} {
			hb, ha := before.Histograms[h.name], after.Histograms[h.name]
			if got := ha.Count - hb.Count; got != h.count {
				t.Errorf("%s: %s observed %d times, want %d", path, h.name, got, h.count)
			}
			if got := ha.Sum - hb.Sum; math.Abs(got-h.sum) > h.inaccuracy+1e-9*h.sum {
				t.Errorf("%s: %s sum moved by %g, Stats sum to %g", path, h.name, got, h.sum)
			}
		}
	}
}

// phaseSlices reads every semfeed_phase_ns{assignment,phase} slice of the
// builtin assignments.
func phaseSlices() map[[2]string]int64 {
	out := map[[2]string]int64{}
	for _, a := range assignments.All() {
		for phase := range ledgerPhases {
			out[[2]string{a.ID, phase}] = obs.PhaseNS.Value(a.ID, phase)
		}
	}
	return out
}

// gradeSlices reads every semfeed_grades_total{assignment,status} slice of
// the builtin assignments.
func gradeSlices() map[[2]string]int64 {
	out := map[[2]string]int64{}
	for _, a := range assignments.All() {
		for _, status := range []string{"ok", "unmatched", "error", "timeout", "canceled"} {
			out[[2]string{a.ID, status}] = obs.GradesTotal.Value(a.ID, status)
		}
	}
	return out
}

func deltas(before, after map[[2]string]int64) map[[2]string]int64 {
	out := map[[2]string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// TestLayersDoNotImportObs pins where a grade's work is published: the EPDG
// builder, the matcher, the constraint checker and the analysis driver
// return their counts to the grader, and only core writes the per-grade
// metric families.
func TestLayersDoNotImportObs(t *testing.T) {
	for _, layer := range []string{"pdg", "match", "constraint", "analysis"} {
		pkg, err := build.ImportDir(filepath.Join("..", layer), 0)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(pkg.Imports, "semfeed/internal/obs") {
			t.Errorf("internal/%s imports semfeed/internal/obs", layer)
		}
	}
}

// TestUntracedGradeAllocs caps the allocations of a grade with tracing and
// metrics off over the seed-1 sample's first 20 submissions of every
// assignment: an untraced grade builds no span name and formats no score.
func TestUntracedGradeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	type job struct {
		unit *ast.CompilationUnit
		spec *core.AssignmentSpec
	}
	var jobs []job
	for _, a := range assignments.All() {
		for _, k := range a.Synth.SampleSeed(20, 1) {
			unit, err := parser.Parse(a.Synth.Render(k))
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			jobs = append(jobs, job{unit, a.Spec})
		}
	}
	grader := core.NewGrader(core.Options{})
	perGrade := testing.AllocsPerRun(3, func() {
		for _, j := range jobs {
			grader.GradeUnit(j.unit, j.spec)
		}
	}) / float64(len(jobs))
	t.Logf("%.1f allocations per grade over %d grades", perGrade, len(jobs))
	if perGrade > 335 {
		t.Errorf("%.1f allocations per untraced grade, want at most 335", perGrade)
	}
}
