package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P3-V1 (IIT Kanpur): print the difference between a positive
// number and its decimal reverse.
//
// |S| = 3^4 * 2^7 = 10,368. The paper's single discrepancy came from an
// alternative digit-count computation the patterns did not cover; here the
// equivalents are the commuted reverse step (10 * r + ...) and the reversed
// subtraction, both flagged by containment constraints.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P3-V1",
		Template: `void lab3p3v1(int k) {
  @{guardNeg}@{extraTemp}@{digitCount}int @{revName} = @{revInit};
  int @{tName} = k;
  while (@{cond}) {
    @{revStep}
    @{tName} @{divOp};
  }
  System.out.@{printCall}(@{diff});
}`,
		Choices: []synth.Choice{
			{ID: "revName", Options: []string{"rev", "r", "back"}},
			{ID: "tName", Options: []string{"t", "temp", "m"}},
			{ID: "revStep", Options: []string{
				"@{revName} = @{revName} * 10 + @{tName} % 10;",
				"@{revName} = 10 * @{revName} + @{tName} % 10;",
				"@{revName} = @{revName} * 10 + @{tName} % 2;",
			}},
			{ID: "digitCount", Options: []string{
				"",
				"int nd = (int) Math.log10(k) + 1;\n  ",
				"int nd = (int) Math.log10(k);\n  ",
			}},
			{ID: "revInit", Options: []string{"0", "1"}},
			{ID: "cond", Options: []string{"@{tName} > 0", "@{tName} >= 0"}},
			{ID: "divOp", Options: []string{"/= 10", "= @{tName} / 10"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "diff", Options: []string{"k - @{revName}", "@{revName} - k"}},
			{ID: "guardNeg", Options: []string{"", "if (k < 0) {\n    return;\n  }\n  "}},
			{ID: "extraTemp", Options: []string{"", "int digits = 0;\n  "}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p3v1",
		MaxSteps: 100_000,
		Cases: []functest.Case{
			{Name: "91", Args: []interp.Value{int64(91)}},   // 91 - 19 = 72
			{Name: "120", Args: []interp.Value{int64(120)}}, // 120 - 21 = 99
			{Name: "7", Args: []interp.Value{int64(7)}},     // 0
			{Name: "1000", Args: []interp.Value{int64(1000)}},
			{Name: "12345", Args: []interp.Value{int64(12345)}},
			{Name: "19", Args: []interp.Value{int64(19)}}, // 19 - 91 = -72 (sign matters)
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P3-V1",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p3v1",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 10368, L: 10.5, T: 0.10, P: 7, C: 6, M: 0.01, D: 1},
	})
}
