package kb_test

import (
	"bytes"
	"strings"
	"testing"

	"semfeed/internal/analysis"
	"semfeed/internal/kb"
)

// minimalDef builds a definition with the given analyzers list; nil means
// the field is absent (inherit), an empty slice is the explicit opt-out.
func minimalDef(analyzers []string) *kb.AssignmentDef {
	def := &kb.AssignmentDef{
		ID: "lint-demo",
		Methods: []kb.MethodDef{{
			Name:     "m",
			Patterns: []kb.PatternUseDef{{Name: "counter-increment", Count: 1}},
		}},
	}
	if analyzers != nil {
		def.Analyzers = &analyzers
	}
	return def
}

func TestAssignmentDefAnalyzers(t *testing.T) {
	// Absent: inherit the grader default (spec.Analysis stays nil).
	spec, errs := minimalDef(nil).Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if spec.Analysis != nil {
		t.Error("absent analyzers field should leave spec.Analysis nil")
	}

	// Explicit list: a driver over exactly those analyzers.
	spec, errs = minimalDef([]string{"deadstore", "noreturn"}).Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if spec.Analysis == nil {
		t.Fatal("analyzers list should compile into a driver")
	}
	if names := spec.Analysis.Names(); len(names) != 2 || names[0] != "deadstore" || names[1] != "noreturn" {
		t.Errorf("driver names = %v", names)
	}

	// Explicit empty list: analysis disabled outright.
	spec, errs = minimalDef([]string{}).Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if spec.Analysis == nil || len(spec.Analysis.Names()) != 0 {
		t.Errorf("empty analyzers list should produce an empty driver, got %v", spec.Analysis)
	}

	// Unknown name: a collected violation.
	_, errs = minimalDef([]string{"spellcheck"}).Compile()
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "spellcheck") {
		t.Errorf("unknown analyzer should fail compile, got %v", errs)
	}
}

func TestAssignmentDefAnalyzersRoundTrip(t *testing.T) {
	def := minimalDef([]string{"usebeforedef", "constcond"})
	var buf bytes.Buffer
	if err := kb.WriteAssignmentDef(&buf, def); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"analyzers"`) {
		t.Fatalf("serialized definition lacks analyzers field:\n%s", buf.String())
	}
	back, err := kb.ReadAssignmentDef(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Analyzers == nil {
		t.Fatal("re-read definition lacks analyzers field")
	}
	spec, errs := back.Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if names := spec.Analysis.Names(); len(names) != 2 || names[0] != "usebeforedef" || names[1] != "constcond" {
		t.Errorf("round-tripped analyzers = %v", names)
	}
}

func TestAssignmentDefAnalyzersOptOutRoundTrip(t *testing.T) {
	// An explicit empty list (analysis disabled) must survive
	// serialize -> read -> Compile without silently re-enabling the
	// inherited grader default.
	var buf bytes.Buffer
	if err := kb.WriteAssignmentDef(&buf, minimalDef([]string{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"analyzers": []`) {
		t.Fatalf("serialized opt-out lacks explicit empty analyzers list:\n%s", buf.String())
	}
	back, err := kb.ReadAssignmentDef(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Analyzers == nil || len(*back.Analyzers) != 0 {
		t.Fatalf("opt-out should read back as an explicit empty list, got %v", back.Analyzers)
	}
	spec, errs := back.Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if spec.Analysis == nil || len(spec.Analysis.Names()) != 0 {
		t.Errorf("opt-out did not survive the round-trip: Analysis = %v", spec.Analysis)
	}
}

func TestAssignmentDefAnalyzersAllNames(t *testing.T) {
	// Every registry name is accepted in a KB file.
	spec, errs := minimalDef(analysis.Default().Names()).Compile()
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if got := len(spec.Analysis.Names()); got != len(analysis.Default().Names()) {
		t.Errorf("driver has %d analyzers", got)
	}
}
