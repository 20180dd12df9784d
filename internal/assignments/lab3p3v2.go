package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P3-V2 (IIT Kanpur): given n and m, print how many factorial
// numbers lie in [n, m].
//
// |S| = 3^2 * 2^16 = 589,824. The paper's four discrepancies came from
// submissions that count 1 twice (as 0! and 1!); the iInit = 0 choice
// reproduces exactly that bug, and the redundant compound filter reproduces
// the functionally-equivalent-but-flagged class.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P3-V2",
		Template: `void lab3p3v2(int n, int m) {
  @{guardEmpty}@{extraTemp}@{cDecl}
  long @{fName} = @{fInit};
  long @{iName} = @{iInit};
  while (@{fName} @{loopCmp} m) {
    if (@{filterShape})
      @{countInc}
    @{advance}
  }
  System.out.@{printCall}(@{printWhat});
}`,
		Choices: []synth.Choice{
			{ID: "cName", Options: []string{"count", "cnt", "c"}},
			{ID: "fName", Options: []string{"f", "fact", "prod"}},
			{ID: "cInit", Options: []string{"0", "1"}},
			{ID: "fInit", Options: []string{"1", "0"}},
			{ID: "iName", Options: []string{"i", "j"}},
			{ID: "iInit", Options: []string{"1", "0"}},
			{ID: "filterCmp", Options: []string{">=", ">"}},
			{ID: "filterShape", Options: []string{"@{fName} @{filterCmp} n", "@{fName} @{filterCmp} n && @{fName} <= m"}},
			{ID: "countInc", Options: []string{"@{cName}++;", "@{cName} = @{cName} + 1;"}},
			{ID: "iInc", Options: []string{"@{iName} = @{iName} + 1;", "@{iName}++;"}},
			{ID: "mulStmt", Options: []string{"@{fName} = @{fName} * @{iName};", "@{fName} *= @{iName};"}},
			{ID: "advance", Options: []string{"@{iInc}\n    @{mulStmt}", "@{mulStmt}\n    @{iInc}"}},
			{ID: "loopCmp", Options: []string{"<=", "<"}},
			{ID: "printWhat", Options: []string{"@{cName}", "@{fName}"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "guardEmpty", Options: []string{"", "if (m < 1) {\n    System.out.println(0);\n    return;\n  }\n  "}},
			{ID: "extraTemp", Options: []string{"", "long last = 0;\n  "}},
			{ID: "cDecl", Options: []string{"int @{cName} = @{cInit};", "int @{cName};\n  @{cName} = @{cInit};"}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p3v2",
		MaxSteps: 100_000,
		Cases: []functest.Case{
			{Name: "1..15", Args: []interp.Value{int64(1), int64(15)}},   // 1, 2, 6 -> 3
			{Name: "1..6", Args: []interp.Value{int64(1), int64(6)}},     // 1, 2, 6 -> 3
			{Name: "2..24", Args: []interp.Value{int64(2), int64(24)}},   // 2, 6, 24 -> 3
			{Name: "3..5", Args: []interp.Value{int64(3), int64(5)}},     // none
			{Name: "1..720", Args: []interp.Value{int64(1), int64(720)}}, // 1,2,6,24,120,720 -> 6
			{Name: "7..100", Args: []interp.Value{int64(7), int64(100)}}, // 24 -> 1
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P3-V2",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p3v2",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 589824, L: 15.42, T: 0.19, P: 8, C: 10, M: 0.03, D: 4},
	})
}
