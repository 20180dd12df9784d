package semfeed_test

import (
	"fmt"
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/baseline/autograder"
	"semfeed/internal/baseline/clara"
	"semfeed/internal/bench"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/kb"
	"semfeed/internal/match"
	"semfeed/internal/pdg"
)

// ---------------------------------------------------------------------------
// Table I (E1): one matching bench and one functional-testing bench per
// assignment row. The M column of the paper is the per-submission feedback
// time; the T column is the per-submission functional-testing time. Use
// cmd/tableone to print the full table including S, L, P, C and D.

func sampleUnits(b *testing.B, a *assignments.Assignment, n int) []*ast.CompilationUnit {
	b.Helper()
	var units []*ast.CompilationUnit
	for _, k := range a.Synth.Sample(n) {
		unit, err := parser.Parse(a.Synth.Render(k))
		if err != nil {
			b.Fatalf("sample %d does not parse: %v", k, err)
		}
		units = append(units, unit)
	}
	return units
}

// BenchmarkTableI_Matching measures column M: personalized feedback time per
// submission (EPDG construction + pattern matching + constraints).
func BenchmarkTableI_Matching(b *testing.B) {
	for _, a := range assignments.All() {
		a := a
		b.Run(a.ID, func(b *testing.B) {
			units := sampleUnits(b, a, 32)
			g := core.NewGrader(core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := g.GradeUnit(units[i%len(units)], a.Spec)
				if rep == nil {
					b.Fatal("nil report")
				}
			}
		})
	}
}

// BenchmarkTableI_FuncTest measures column T: functional-testing time per
// submission.
func BenchmarkTableI_FuncTest(b *testing.B) {
	for _, a := range assignments.All() {
		a := a
		b.Run(a.ID, func(b *testing.B) {
			units := sampleUnits(b, a, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.Tests.Run(units[i%len(units)])
			}
		})
	}
}

// interpHeavy are the Table I rows whose cost is dominated by functional
// testing (loop-bound interpreter work) — the rows the closure-compiled
// engine targets.
var interpHeavy = []string{"esc-LAB-3-P1-V1", "esc-LAB-3-P2-V2", "esc-LAB-3-P3-V1", "esc-LAB-3-P3-V2"}

// BenchmarkInterpCompiled runs each interpreter-heavy suite on a program
// compiled once — the compile-once/execute-many hot path of grading.
func BenchmarkInterpCompiled(b *testing.B) {
	for _, id := range interpHeavy {
		a := assignments.Get(id)
		b.Run(id, func(b *testing.B) {
			unit, err := parser.Parse(a.Reference())
			if err != nil {
				b.Fatal(err)
			}
			prog := interp.Compile(unit)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !a.Tests.RunProgram(prog).Pass {
					b.Fatal("reference failed its own tests")
				}
			}
		})
	}
}

// BenchmarkInterpStepLimit runs, for each interpreter-heavy row, the suite
// of the first seed-1 sample submission that never terminates, on a program
// compiled once. Such submissions spend their whole step budget on every
// looping case; they are most of the interpreter work of a Table I sweep.
func BenchmarkInterpStepLimit(b *testing.B) {
	for _, id := range interpHeavy {
		a := assignments.Get(id)
		b.Run(id, func(b *testing.B) {
			prog := firstInfiniteLoop(b, a)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !a.Tests.RunProgram(prog).InfiniteLoop {
					b.Fatal("step-limited submission terminated")
				}
			}
		})
	}
}

// TestStepLimitWork counts the work of the BenchmarkInterpStepLimit suites.
// The loops of P2-V2 and P3-V1 reach a state that recurs; those of P1-V1
// and P3-V2 recur but for a counter that drifts by one per iteration while
// the product it feeds stays 0. The compiled engine fast-forwards all four
// and executes at most 5% of the steps it charges. TestFastForward holds
// the loops it must not skip.
func TestStepLimitWork(t *testing.T) {
	for _, id := range interpHeavy {
		a := assignments.Get(id)
		prog := firstInfiniteLoop(t, a)
		var charged, skipped int
		for _, c := range a.Tests.Cases {
			cfg := interp.Config{Stdin: c.Stdin, Files: c.Files, MaxSteps: a.Tests.MaxSteps}
			// A looping case fails with ErrStepLimit; its Result still counts.
			res, _ := prog.Run(a.Tests.Entry, c.Args, cfg)
			charged += res.Steps
			skipped += res.Skipped
		}
		executed := charged - skipped
		t.Logf("%s: %d steps charged, %d executed", id, charged, executed)
		if executed*20 > charged {
			t.Errorf("%s: executed %d of %d charged steps, want at most 5%%", id, executed, charged)
		}
	}
}

// firstInfiniteLoop compiles the first submission of SampleSeed(200, 1)
// whose verdict is InfiniteLoop.
func firstInfiniteLoop(tb testing.TB, a *assignments.Assignment) *interp.Program {
	tb.Helper()
	for _, k := range a.Synth.SampleSeed(200, 1) {
		unit, err := parser.Parse(a.Synth.Render(k))
		if err != nil {
			continue
		}
		prog := interp.Compile(unit)
		if a.Tests.RunProgram(prog).InfiniteLoop {
			return prog
		}
	}
	tb.Fatalf("%s: no step-limited submission in the seed-1 sample", a.ID)
	return nil
}

// BenchmarkInterpTreeWalk is the same work on the tree-walking reference
// engine; the ratio against BenchmarkInterpCompiled is the headline speedup.
func BenchmarkInterpTreeWalk(b *testing.B) {
	for _, id := range interpHeavy {
		a := assignments.Get(id)
		b.Run(id, func(b *testing.B) {
			unit, err := parser.Parse(a.Reference())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !a.Tests.RunTreeWalk(unit).Pass {
					b.Fatal("reference failed its own tests")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Section VI-C (E5): matching cost versus input magnitude. Our feedback time
// is independent of the tested input; the CLARA-style baseline's trace
// collection grows linearly with it (the paper's k = 100,000 timeout).

const sumLoopSrc = `void run(int n) {
  int s = 0;
  int i = 1;
  while (i <= n) {
    s += i;
    i++;
  }
  System.out.println(s);
}`

func BenchmarkScalabilityVsClara(b *testing.B) {
	spec := &core.AssignmentSpec{
		Name: "sum-loop",
		Methods: []core.MethodSpec{{
			Name: "run",
			Patterns: []core.PatternUse{
				{Pattern: kb.Pattern("counter-increment"), Count: 1},
				{Pattern: kb.Pattern("cond-accumulate-add"), Count: 1},
				{Pattern: kb.Pattern("assign-print"), Count: 1},
			},
		}},
	}
	// CLARA at k = 1,000,000 exceeds its trace budget (the paper's timeout
	// at k = 100,000); TestComparisonScalabilityVsClaraTimeout covers that
	// terminal case, the bench measures the growth below it.
	for _, k := range []int64{100, 2_000, 20_000} {
		k := k
		b.Run(fmt.Sprintf("semfeed/k=%d", k), func(b *testing.B) {
			unit, err := parser.Parse(sumLoopSrc)
			if err != nil {
				b.Fatal(err)
			}
			g := core.NewGrader(core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.GradeUnit(unit, spec) // static: cost independent of k
			}
		})
		b.Run(fmt.Sprintf("clara/k=%d", k), func(b *testing.B) {
			inputs := []functest.Case{{Name: "k", Args: []interp.Value{int64(k)}}}
			cg := clara.New("run", inputs, clara.Options{MaxSteps: 50_000_000})
			if cg.Train([]string{sumLoopSrc}) != 1 {
				b.Fatal("train failed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cg.Feedback(sumLoopSrc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Section VI-C (E6): Sketch-style repair search blows up combinatorially
// with the number of injected errors (the paper: degradation past 4 repairs).

func BenchmarkSketchRepairBlowup(b *testing.B) {
	a := assignments.Get("assignment1")
	ag := autograder.New(a.Synth, a.Tests, autograder.Options{ConcatWorkaround: true, MaxRepairs: 6})
	errorSets := []map[string]int{
		{"oddInit": 1},
		{"oddInit": 1, "evenInit": 1},
		{"oddInit": 1, "evenInit": 1, "cmpOp": 1},
		{"oddInit": 1, "evenInit": 1, "cmpOp": 1, "oddOp": 1},
		{"oddInit": 1, "evenInit": 1, "cmpOp": 1, "oddOp": 1, "evenOp": 1},
	}
	for n, overrides := range errorSets {
		overrides := overrides
		b.Run(fmt.Sprintf("errors=%d", n+1), func(b *testing.B) {
			idx := a.Synth.IndexWith(overrides)
			var k int64
			for i, c := range a.Synth.Choices {
				k = k*int64(len(c.Options)) + int64(idx[i])
			}
			candidates := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := ag.RepairIndex(k)
				if err != nil {
					b.Fatal(err)
				}
				candidates = stats.Candidates
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// Ours, on the same five-error submission, for contrast with the blowup.
func BenchmarkSemfeedFiveErrors(b *testing.B) {
	a := assignments.Get("assignment1")
	src := a.Synth.RenderWith(map[string]int{
		"oddInit": 1, "evenInit": 1, "cmpOp": 1, "oddOp": 1, "evenOp": 1,
	})
	unit, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	g := core.NewGrader(core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.GradeUnit(unit, a.Spec)
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5): the EPDG and matcher construction choices the
// paper calls out.

func ablationUnits(b *testing.B) []*ast.CompilationUnit {
	b.Helper()
	var units []*ast.CompilationUnit
	for _, a := range assignments.All() {
		unit, err := parser.Parse(a.Reference())
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, unit)
	}
	return units
}

// BenchmarkAblationCtrlEdges compares matching over reduced (paper) versus
// transitive control edges.
func BenchmarkAblationCtrlEdges(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts pdg.BuildOpts
	}{
		{"reduced", pdg.BuildOpts{}},
		{"transitive", pdg.BuildOpts{TransitiveCtrl: true}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			units := ablationUnits(b)
			edges := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := assignments.All()[i%len(units)]
				g := core.NewGrader(core.Options{BuildOptions: variant.opts})
				rep := g.GradeUnit(units[i%len(units)], a.Spec)
				_ = rep
			}
			b.StopTimer()
			for _, u := range units {
				for _, gph := range pdg.BuildAllWith(u, variant.opts) {
					edges += len(gph.Edges)
				}
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkAblationDataEdges compares the paper's one-iteration
// linearization against the conservative (conditions-may-fail) convention.
func BenchmarkAblationDataEdges(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts pdg.BuildOpts
	}{
		{"linearized", pdg.BuildOpts{}},
		{"conservative", pdg.BuildOpts{ConservativeData: true}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			units := ablationUnits(b)
			edges := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := assignments.All()[i%len(units)]
				g := core.NewGrader(core.Options{BuildOptions: variant.opts})
				_ = g.GradeUnit(units[i%len(units)], a.Spec)
			}
			b.StopTimer()
			for _, u := range units {
				for _, gph := range pdg.BuildAllWith(u, variant.opts) {
					edges += len(gph.Edges)
				}
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkAblationNodeOrdering compares candidate-count-driven pattern-node
// ordering (ours) against Algorithm 1's declaration order.
func BenchmarkAblationNodeOrdering(b *testing.B) {
	a := assignments.Get("rit-medals-by-ath") // largest patterns and graphs
	unit, err := parser.Parse(a.Reference())
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts match.Options
	}{
		{"ordered", match.Options{}},
		{"paper-order", match.Options{PaperOrder: true}},
		{"no-prefilter", match.Options{NoPrefilter: true}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			g := core.NewGrader(core.Options{MatchOptions: variant.opts})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.GradeUnit(unit, a.Spec)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Component micro-benches.

func BenchmarkEPDGBuild(b *testing.B) {
	a := assignments.Get("rit-all-g-medals")
	m, err := parser.ParseMethod(a.Reference())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pdg.Build(m)
	}
}

func BenchmarkParse(b *testing.B) {
	a := assignments.Get("rit-all-g-medals")
	src := a.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternMatchingSingle(b *testing.B) {
	a := assignments.Get("assignment1")
	m, err := parser.ParseMethod(a.Reference())
	if err != nil {
		b.Fatal(err)
	}
	g := pdg.Build(m)
	p := kb.Pattern("seq-odd-access")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if embs := match.Find(p, g); len(embs) == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// ---------------------------------------------------------------------------
// TestTableIShape is the checked-in smoke version of cmd/tableone: it
// regenerates a small-sample Table I and asserts the headline claims — the
// matching time M stays in the low-millisecond range and the discrepancy
// rate stays far below the space size.
func TestTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration")
	}
	rows := bench.MeasureAll(60)
	t.Logf("\n%s", bench.FormatTable(rows))
	for _, r := range rows {
		if r.M.Milliseconds() > 50 {
			t.Errorf("%s: matching time %v is not 'milliseconds on average'", r.Assignment, r.M)
		}
		if r.Evaluated > 0 && r.D > r.Evaluated/3 {
			t.Errorf("%s: %d/%d discrepancies — far above the paper's rate", r.Assignment, r.D, r.Evaluated)
		}
	}
}
