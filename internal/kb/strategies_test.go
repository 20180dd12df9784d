package kb_test

import (
	"testing"

	"semfeed/internal/core"
	"semfeed/internal/kb"
)

func TestSequentialParityScanStrategy(t *testing.T) {
	spec := &core.AssignmentSpec{
		Name:    "strategy-demo",
		Methods: []core.MethodSpec{{Name: "assignment1"}},
	}
	spec.Methods[0].Apply(kb.Strategy("sequential-parity-scan"))
	if got := spec.PatternCount(); got != 6 {
		t.Errorf("patterns applied = %d, want 6", got)
	}
	if got := spec.ConstraintCount(); got != 3 {
		t.Errorf("constraints applied = %d, want 3", got)
	}

	good := `void assignment1(int[] a) {
	  int odd = 0;
	  int even = 1;
	  for (int i = 0; i < a.length; i++) {
	    if (i % 2 == 1)
	      odd += a[i];
	    if (i % 2 == 0)
	      even *= a[i];
	  }
	  System.out.println(odd);
	  System.out.println(even);
	}`
	rep, err := core.NewGrader(core.Options{}).Grade(good, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllCorrect() {
		t.Errorf("canonical strategy solution should be all-Correct:\n%s", rep)
	}

	// A functionally plausible but different strategy (stride-2) violates
	// the enforced one — the paper's "structural requirements" row.
	stride := `void assignment1(int[] a) {
	  int odd = 0;
	  int even = 1;
	  for (int i = 1; i < a.length; i += 2)
	    odd += a[i];
	  for (int i = 0; i < a.length; i += 2)
	    even *= a[i];
	  System.out.println(odd);
	  System.out.println(even);
	}`
	rep, err = core.NewGrader(core.Options{}).Grade(stride, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllCorrect() {
		t.Error("the stride strategy must violate the enforced parity-scan strategy")
	}
}

func TestDigitReverseStrategy(t *testing.T) {
	spec := &core.AssignmentSpec{
		Name:    "reverse-demo",
		Methods: []core.MethodSpec{{Name: "rev"}},
	}
	spec.Methods[0].Apply(kb.Strategy("digit-reverse"))

	good := `int rev(int k) {
	  int r = 0;
	  int t = k;
	  while (t > 0) {
	    r = r * 10 + t % 10;
	    t /= 10;
	  }
	  return r;
	}`
	rep, err := core.NewGrader(core.Options{}).Grade(good, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllCorrect() {
		t.Errorf("canonical reverse should satisfy the strategy:\n%s", rep)
	}

	viaString := `int rev(int k) {
	  String s = "" + k;
	  int r = 0;
	  for (int i = s.length() - 1; i >= 0; i--)
	    r = r * 10 + (s.charAt(i) - '0');
	  return r;
	}`
	rep, err = core.NewGrader(core.Options{}).Grade(viaString, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllCorrect() {
		t.Error("string-based reversal must violate the digit-extraction strategy")
	}
}
