package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P4-V1 (IIT Kanpur): check whether a given number is a decimal
// palindrome.
//
// |S| = 3^3 * 2^9 = 13,824.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P4-V1",
		Template: `void lab3p4v1(int k) {
  @{guardNeg}@{extraTemp}int @{revName} = @{revInit};
  @{tDecl}
  while (@{cond}) {
    @{revStep}
    @{tName} @{divOp};
  }
  @{ifElse}
}`,
		Choices: []synth.Choice{
			{ID: "revName", Options: []string{"rev", "r", "back"}},
			{ID: "tName", Options: []string{"t", "temp", "m"}},
			{ID: "revStep", Options: []string{
				"@{revName} = @{revName} * 10 + @{tName} % 10;",
				"@{revName} = 10 * @{revName} + @{tName} % 10;",
				"@{revName} = @{revName} * 10 + @{tName} % 2;",
			}},
			{ID: "revInit", Options: []string{"0", "1"}},
			{ID: "cond", Options: []string{"@{tName} > 0", "@{tName} != 0"}},
			{ID: "divOp", Options: []string{"/= 10", "= @{tName} / 10"}},
			{ID: "eqOrder", Options: []string{"@{revName} == k", "k == @{revName}"}},
			{ID: "ifElse", Options: []string{
				"if (@{eqOrder})\n    System.out.@{printCall}(\"palindrome\");\n  else\n    System.out.@{printCall}(\"not palindrome\");",
				"if (@{eqOrder}) {\n    System.out.@{printCall}(\"palindrome\");\n  } else {\n    System.out.@{printCall}(\"not palindrome\");\n  }",
			}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "guardNeg", Options: []string{"", "if (k < 0) {\n    return;\n  }\n  "}},
			{ID: "extraTemp", Options: []string{"", "int digits = 0;\n  "}},
			{ID: "tDecl", Options: []string{"int @{tName} = k;", "int @{tName};\n  @{tName} = k;"}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p4v1",
		MaxSteps: 100_000,
		Cases: []functest.Case{
			{Name: "121", Args: []interp.Value{int64(121)}},
			{Name: "1221", Args: []interp.Value{int64(1221)}},
			{Name: "123", Args: []interp.Value{int64(123)}},
			{Name: "7", Args: []interp.Value{int64(7)}},
			{Name: "10", Args: []interp.Value{int64(10)}},
			{Name: "99899", Args: []interp.Value{int64(99899)}},
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P4-V1",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p4v1",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 13824, L: 10.5, T: 0.17, P: 7, C: 6, M: 0.01, D: 1},
	})
}
