package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P1-V1 (IIT Kanpur): print n such that n! <= k < (n+1)!.
//
// |S| = 3^3 * 2^14 = 442,368. The paper's discrepancy class (8 submissions
// computing an equivalent lower limit) is reproduced by functionally
// equivalent advance conditions — the commuted product (n+1)*f and the
// commuted sum (1+n) — that the advance-condition containment constraint
// flags as incorrect.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P1-V1",
		Template: `void lab3p1v1(int k) {
  @{guardZero}@{seedCheck}@{extraTemp}int @{nName} = @{nInit};
  @{fDecl}
  while (@{condLeft} @{advCmp} k) {
    @{body}
  }
  System.out.@{printCall}(@{printWhat});
}`,
		Choices: []synth.Choice{
			{ID: "nName", Options: []string{"n", "c", "cnt"}},
			{ID: "fName", Options: []string{"f", "fact", "prod"}},
			{ID: "printWhat", Options: []string{"@{nName}", "@{fName}", "\"n = \" + @{nName}"}},
			{ID: "nInit", Options: []string{"1", "0"}},
			{ID: "fInit", Options: []string{"1", "0"}},
			{ID: "condLeft", Options: []string{"@{fName} * @{sumOrder}", "@{sumOrder} * @{fName}"}},
			{ID: "sumOrder", Options: []string{"(@{nName} + 1)", "(1 + @{nName})"}},
			{ID: "advCmp", Options: []string{"<=", "<"}},
			{ID: "inc", Options: []string{"@{nName}++;", "@{nName} = @{nName} + 1;"}},
			{ID: "mul", Options: []string{"@{fName} *= @{nName};", "@{fName} = @{fName} * @{nName};"}},
			{ID: "body", Options: []string{"@{inc}\n    @{mul}", "@{mul}\n    @{inc}"}},
			{ID: "fType", Options: []string{"long", "int"}},
			{ID: "fDecl", Options: []string{"@{fType} @{fName} = @{fInit};", "@{fType} @{fName};\n  @{fName} = @{fInit};"}},
			{ID: "extraTemp", Options: []string{"", "long tmp = 0;\n  "}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "guardZero", Options: []string{"", "if (k <= 0) {\n    System.out.println(0);\n    return;\n  }\n  "}},
			{ID: "seedCheck", Options: []string{"", "if (k == 1) {\n    System.out.println(1);\n    return;\n  }\n  "}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p1v1",
		MaxSteps: 100_000, // broken variants (f = 0) would loop forever
		Cases: []functest.Case{
			{Name: "k=2", Args: []interp.Value{int64(2)}},
			{Name: "k=5", Args: []interp.Value{int64(5)}},
			{Name: "k=6", Args: []interp.Value{int64(6)}},
			{Name: "k=7", Args: []interp.Value{int64(7)}},
			{Name: "k=24", Args: []interp.Value{int64(24)}},
			{Name: "k=100", Args: []interp.Value{int64(100)}},
			{Name: "k=5040", Args: []interp.Value{int64(5040)}},
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P1-V1",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p1v1",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 442368, L: 15.17, T: 0.20, P: 7, C: 5, M: 0.04, D: 8},
	})
}
