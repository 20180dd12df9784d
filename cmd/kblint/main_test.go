package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semfeed/internal/constraint"
	"semfeed/internal/kb"
	"semfeed/internal/pattern"
	"semfeed/internal/synth"
)

// demoPattern is a minimal valid inline pattern; its node IDs anchor the
// self-constraint fixture below.
func demoPattern(name string) pattern.Pattern {
	return pattern.Pattern{
		Name: name,
		Vars: []string{"x"},
		Nodes: []pattern.Node{
			{ID: "u0", Type: "Assign", Exact: []string{"x = 0"}, Approx: []string{"x ="}},
			{ID: "u1", Type: "Cond", Exact: []string{"x <"}},
		},
		Edges:   []pattern.Edge{{From: "u0", To: "u1", Type: "Data"}},
		Present: "found {x}",
		Missing: "missing",
	}
}

func writeDef(t *testing.T, def *kb.AssignmentDef) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), def.ID+".json")
	data, err := json.MarshalIndent(def, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintDefOrphanPattern(t *testing.T) {
	// "ghost" is declared inline but nothing — no pattern use, no group, no
	// constraint — ever names it.
	def := &kb.AssignmentDef{
		ID:       "orphaned",
		Patterns: []pattern.Pattern{demoPattern("ghost")},
		Methods: []kb.MethodDef{{
			Name:     "walk",
			Patterns: []kb.PatternUseDef{{Name: "counter-increment", Count: 1}},
		}},
	}
	path := writeDef(t, def)

	var out bytes.Buffer
	if code := lintDefs(&out, []string{path}); code == 0 {
		t.Fatalf("orphan pattern must exit nonzero\n%s", out.String())
	}
	want := path + `: assignment orphaned: orphan pattern "ghost" is defined but never referenced`
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), "1 violation(s)") {
		t.Errorf("violation count missing:\n%s", out.String())
	}
}

func TestLintDefSelfConstraint(t *testing.T) {
	// The constraint relates "demo" to itself: trivially satisfiable, so it
	// can never reject a submission.
	def := &kb.AssignmentDef{
		ID:       "selfref",
		Patterns: []pattern.Pattern{demoPattern("demo")},
		Methods: []kb.MethodDef{{
			Name:     "walk",
			Patterns: []kb.PatternUseDef{{Name: "demo", Count: 1}},
			Constraints: []constraint.Constraint{{
				Name: "same-var",
				Kind: "equality",
				Pi:   "demo", Ui: "u0",
				Pj: "demo", Uj: "u1",
			}},
		}},
	}
	path := writeDef(t, def)

	var out bytes.Buffer
	if code := lintDefs(&out, []string{path}); code == 0 {
		t.Fatalf("self-constraint must exit nonzero\n%s", out.String())
	}
	want := path + `: assignment selfref: method walk: constraint "same-var" relates pattern "demo" to itself`
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

func TestLintDefCleanStaysClean(t *testing.T) {
	// A definition that uses its inline pattern and relates two distinct
	// patterns lints clean: both rules are quiet and the exit code is 0.
	// The builtin assignment definitions ride along, so a builtin that breaks
	// a rule uploaded definitions are held to fails here.
	builtins, err := filepath.Glob("../../internal/kb/builtin/assignments/*.json")
	if err != nil || len(builtins) != 12 {
		t.Fatalf("want the 12 builtin definitions, got %d (%v)", len(builtins), err)
	}
	def := &kb.AssignmentDef{
		ID:       "clean",
		Patterns: []pattern.Pattern{demoPattern("local")},
		Groups: []kb.GroupDef{{
			Name:    "either",
			Missing: "nothing found",
			Members: []string{"local", "counter-increment"},
		}},
		Methods: []kb.MethodDef{{
			Name:   "walk",
			Groups: []kb.GroupUseDef{{Name: "either", Count: 1}},
		}},
	}
	path := writeDef(t, def)

	var out bytes.Buffer
	if code := lintDefs(&out, append([]string{path}, builtins...)); code != 0 {
		t.Fatalf("clean definition flagged: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `assignment "clean" ok`) {
		t.Errorf("ok line missing:\n%s", out.String())
	}
	if n := strings.Count(out.String(), " ok ("); n != 1+len(builtins) {
		t.Errorf("%d ok lines, want %d:\n%s", n, 1+len(builtins), out.String())
	}
}

func TestDefLintsDirect(t *testing.T) {
	// Supporting references keep a pattern alive, and bare containment
	// constraints (empty Pj) are not self-constraints.
	def := &kb.AssignmentDef{
		ID:       "direct",
		Patterns: []pattern.Pattern{demoPattern("aux")},
		Methods: []kb.MethodDef{{
			Name:     "walk",
			Patterns: []kb.PatternUseDef{{Name: "counter-increment", Count: 1}},
			Constraints: []constraint.Constraint{{
				Name: "print-c",
				Kind: "containment",
				Pi:   "counter-increment", Ui: "u0",
				Expr:       "x",
				Supporting: []string{"aux"},
			}},
		}},
	}
	if vs := defLints(def); len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
}

// wholeDef is a minimal whole assignment whose synth, tests and paper
// sections agree: a two-point space, one case recorded from the reference,
// and |S| = 2.
func wholeDef() *kb.AssignmentDef {
	return &kb.AssignmentDef{
		ID: "square",
		Methods: []kb.MethodDef{{
			Name:     "square",
			Patterns: []kb.PatternUseDef{{Name: "assign-print", Count: 1}},
		}},
		Synth: &synth.Spec{
			Template: "void square(int x) {\n  int y = x @{op} x;\n  System.out.println(y);\n}",
			Choices:  []synth.Choice{{ID: "op", Options: []string{"*", "+"}}},
		},
		Tests: &kb.TestsDef{
			Entry: "square",
			Cases: []kb.CaseDef{{Name: "three", Args: []json.RawMessage{json.RawMessage("3")}, Want: "9\n"}},
		},
		Paper: &kb.PaperRow{S: 2},
	}
}

// TestLintDefDataChecks gives each check of a whole assignment one fixture
// that breaks it: a recorded want that is not the reference's output, a
// space whose size is not paper.s, a tests section without a synth section
// to type it, and a string argument for an int parameter.
func TestLintDefDataChecks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*kb.AssignmentDef)
		want   string
	}{
		{"clean", func(*kb.AssignmentDef) {}, ""},
		{"wrong-want", func(d *kb.AssignmentDef) { d.Tests.Cases[0].Want = "6\n" },
			`case three records "6\n", the reference prints "9\n"`},
		{"size-not-paper", func(d *kb.AssignmentDef) { d.Paper.S = 3 },
			"assignment square: |S| = 2, but paper.s = 3"},
		{"tests-without-synth", func(d *kb.AssignmentDef) { d.Synth = nil },
			"assignment square: tests section without a synth section"},
		{"string-for-int", func(d *kb.AssignmentDef) { d.Tests.Cases[0].Args[0] = json.RawMessage(`"3"`) },
			`assignment square: test three: arg 1 for parameter int x: "3" does not fit int`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def := wholeDef()
			tc.mutate(def)
			var out bytes.Buffer
			code := lintDefs(&out, []string{writeDef(t, def)})
			if tc.want == "" {
				if code != 0 {
					t.Fatalf("clean whole assignment flagged: exit %d\n%s", code, out.String())
				}
				return
			}
			if code == 0 {
				t.Fatalf("want exit nonzero\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}
