package kb_test

import (
	"strings"
	"testing"

	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/kb"
)

// TestAssignmentDefViolationsCollected pins that Compile reports every
// violation, not just the first: an unknown pattern use, a negative group
// count, a constraint whose cross-reference does not resolve, and a
// constraint naming a missing node must all surface in one pass.
func TestAssignmentDefViolationsCollected(t *testing.T) {
	def := &kb.AssignmentDef{
		ID: "broken",
		Groups: []kb.GroupDef{{
			Name:    "even-any",
			Members: []string{"seq-even-access", "stride-2-even-access"},
		}},
		Methods: []kb.MethodDef{{
			Name: "m",
			Patterns: []kb.PatternUseDef{
				{Name: "no-such-pattern", Count: 1},
				{Name: "digit-extraction", Count: 1},
			},
			Groups: []kb.GroupUseDef{{Name: "even-any", Count: -1}},
			Constraints: []constraint.Constraint{
				{Name: "bad-ref", Kind: constraint.Equality,
					Pi: "digit-extraction", Ui: "u1", Pj: "also-missing", Uj: "u0"},
				{Name: "bad-node", Kind: constraint.Equality,
					Pi: "digit-extraction", Ui: "nope", Pj: "digit-extraction", Uj: "u1"},
			},
		}},
	}
	spec, errs := def.Compile()
	if spec != nil {
		t.Fatalf("expected nil spec for broken definition")
	}
	if len(errs) != 4 {
		t.Fatalf("expected 4 violations, got %d: %v", len(errs), errs)
	}
	joined := ""
	for _, e := range errs {
		joined += e.Error() + "\n"
	}
	for _, want := range []string{"no-such-pattern", `group "even-any" has negative count -1`, "also-missing", `no node "nope"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}

// TestAssignmentDefGroupsAndInline exercises the definition features the
// built-ins do not use: an inline pattern and a variability group over it.
func TestAssignmentDefGroupsAndInline(t *testing.T) {
	def := &kb.AssignmentDef{
		ID: "grouped",
		Groups: []kb.GroupDef{{
			Name:    "even-any",
			Missing: "no even access found",
			Members: []string{"seq-even-access", "stride-2-even-access"},
		}},
		Methods: []kb.MethodDef{{
			Name:   "walk",
			Groups: []kb.GroupUseDef{{Name: "even-any", Count: 1}},
		}},
	}
	spec, errs := def.Compile()
	if len(errs) > 0 {
		t.Fatalf("compile: %v", errs)
	}
	if len(spec.Methods) != 1 || len(spec.Methods[0].Groups) != 1 {
		t.Fatalf("unexpected spec shape: %+v", spec)
	}
	if got := spec.Methods[0].Groups[0].Group.Members[1].Name(); got != "stride-2-even-access" {
		t.Fatalf("group member 1 = %s", got)
	}

	src := `void walk(int[] a) {
  int i = 0;
  while (i < a.length) {
    System.out.println(a[i]);
    i += 2;
  }
}`
	report, err := core.NewGrader(core.Options{}).Grade(src, spec)
	if err != nil {
		t.Fatalf("grade: %v", err)
	}
	if report.Score != 1 {
		t.Fatalf("stride-2 walk should satisfy the group: %v", report)
	}
}
