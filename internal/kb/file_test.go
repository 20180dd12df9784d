package kb_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/interp"
	"semfeed/internal/kb"
	"semfeed/internal/synth"
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

// TestAssignmentDefTestArgs pins how a tests section's plain JSON arguments
// are typed by the reference's entry parameters, and that Compile rejects
// every argument that does not fit its parameter.
func TestAssignmentDefTestArgs(t *testing.T) {
	def := func(args ...string) *kb.AssignmentDef {
		raw := make([]json.RawMessage, len(args))
		for i, a := range args {
			raw[i] = json.RawMessage(a)
		}
		return &kb.AssignmentDef{
			ID:      "typed",
			Methods: []kb.MethodDef{{Name: "f"}},
			Synth: &synth.Spec{
				Template: "void f(int n, double x, String s, int[] a, double[] d) { System.out.println(@{out}); }",
				Choices:  []synth.Choice{{ID: "out", Options: []string{"n"}}},
			},
			Tests: &kb.TestsDef{Entry: "f", Cases: []kb.CaseDef{{Name: "c", Args: raw}}},
		}
	}

	good := def(`-3`, `2`, `"Ann"`, `[1, 2]`, `[0.5, 3]`)
	if _, errs := good.Compile(); len(errs) > 0 {
		t.Fatalf("compile: %v", errs)
	}
	suite, err := good.Suite(nil)
	if err != nil {
		t.Fatal(err)
	}
	args := suite.Cases[0].Args
	want := []interp.Value{int64(-3), float64(2), "Ann",
		&interp.Array{Elem: "int", Elems: []interp.Value{int64(1), int64(2)}},
		&interp.Array{Elem: "double", Elems: []interp.Value{0.5, float64(3)}}}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("args = %#v, want %#v", args, want)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{`"3"`, `2`, `"Ann"`, `[]`, `[]`}, `arg 1 for parameter int n: "3" does not fit int`},
		{[]string{`2.5`, `2`, `"Ann"`, `[]`, `[]`}, `2.5 does not fit int`},
		{[]string{`3000000000`, `2`, `"Ann"`, `[]`, `[]`}, `3000000000 overflows int`},
		{[]string{`null`, `2`, `"Ann"`, `[]`, `[]`}, `null does not fit int`},
		{[]string{`1`, `"2"`, `"Ann"`, `[]`, `[]`}, `"2" does not fit double`},
		{[]string{`1`, `2`, `7`, `[]`, `[]`}, `7 does not fit String`},
		{[]string{`1`, `2`, `"Ann"`, `[1, "x"]`, `[]`}, `element 1: "x" does not fit int`},
		{[]string{`1`, `2`, `"Ann"`, `[]`}, `4 args for 5 parameters`},
	} {
		_, errs := def(tc.args...).Compile()
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
			t.Errorf("args %v: errors %v, want one containing %q", tc.args, errs, tc.want)
		}
	}
}
