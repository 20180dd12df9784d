package assignments_test

import (
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
)

// TestEveryAssignmentInvariants checks the properties every Table I row must
// satisfy: the synthetic space has exactly the published size, the reference
// solution passes its own functional tests, every recorded output is the
// reference's, byte for byte, and the reference earns all-Correct
// personalized feedback.
func TestEveryAssignmentInvariants(t *testing.T) {
	all := assignments.All()
	if len(all) == 0 {
		t.Fatal("no assignments registered")
	}
	for _, a := range all {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			if got := a.Synth.Size(); got != a.Paper.S {
				t.Errorf("|S| = %d, want %d (Table I)", got, a.Paper.S)
			}
			verdict, err := a.Tests.RunSource(a.Reference())
			if err != nil {
				t.Fatalf("reference does not run: %v\n%s", err, a.Reference())
			}
			if !verdict.Pass {
				t.Fatalf("reference fails its own tests: %v\n%s", verdict.Failures, a.Reference())
			}
			for _, err := range a.Tests.CheckExpected(a.Reference()) {
				t.Error(err)
			}
			rep := grade(t, a, a.Reference())
			if !rep.AllCorrect() {
				t.Errorf("reference does not earn all-Correct feedback:\n%s\n%s", a.Reference(), rep)
			}
		})
	}
}

// TestEveryAssignmentSampleRuns greps a deterministic sample of each space:
// every generated submission must parse and grade without harness errors,
// and the feedback sign must agree with functional testing for a strong
// majority (Table I's D column is small relative to S).
func TestEveryAssignmentSampleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling scan")
	}
	g := core.NewGrader(core.Options{})
	for _, a := range assignments.All() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			sample := a.Synth.Sample(120)
			agree, disagree := 0, 0
			for _, k := range sample {
				src := a.Synth.Render(k)
				verdict, err := a.Tests.RunSource(src)
				if err != nil {
					t.Fatalf("submission %d does not parse/run: %v\n%s", k, err, src)
				}
				rep, err := g.Grade(src, a.Spec)
				if err != nil {
					t.Fatalf("submission %d does not grade: %v", k, err)
				}
				if verdict.Pass == rep.AllCorrect() {
					agree++
				} else {
					disagree++
				}
			}
			if agree == 0 || disagree > agree/2 {
				t.Errorf("%s: agreement %d vs disagreement %d", a.ID, agree, disagree)
			}
			t.Logf("%s: agreement %d/%d", a.ID, agree, len(sample))
		})
	}
}
