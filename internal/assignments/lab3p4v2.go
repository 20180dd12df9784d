package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P4-V2 (IIT Kanpur): given n and m, print how many Fibonacci
// numbers (1, 1, 2, 3, ...) lie in [n, m].
//
// |S| = 3^2 * 2^20 = 9,437,184 — the largest space of Table I. The paper's
// 248 discrepancies came from sequences started at i = 0 instead of i = 1;
// the seedA = 0 choice reproduces exactly that (0 is below every tested
// lower bound, so the output is unchanged while the seed feedback is
// negative).
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P4-V2",
		Template: `void lab3p4v2(int n, int m) {
  @{guardEmpty}@{extraTemp}@{cDecl}
  @{aDecl}
  long @{bName} = @{seedB};
  while (@{loopVar} @{loopCmp} m) {
    @{body}
  }
  System.out.@{printCall}(@{printWhat});
}`,
		Choices: []synth.Choice{
			{ID: "cName", Options: []string{"count", "cnt", "total"}},
			{ID: "tmpName", Options: []string{"t", "z", "nxt"}},
			{ID: "aName", Options: []string{"a", "x"}},
			{ID: "bName", Options: []string{"b", "y"}},
			{ID: "cInit", Options: []string{"0", "1"}},
			{ID: "seedA", Options: []string{"1", "0"}},
			{ID: "seedB", Options: []string{"1", "2"}},
			{ID: "loopCmp", Options: []string{"<=", "<"}},
			{ID: "loopVar", Options: []string{"@{aName}", "@{bName}"}},
			{ID: "filterCmp", Options: []string{">=", ">"}},
			{ID: "filterShape", Options: []string{"@{aName} @{filterCmp} n", "@{aName} @{filterCmp} n && @{aName} <= m"}},
			{ID: "countInc", Options: []string{"@{cName}++;", "@{cName} = @{cName} + 1;"}},
			{ID: "sumOrder", Options: []string{"@{aName} + @{bName}", "@{bName} + @{aName}"}},
			{ID: "rotation", Options: []string{
				"@{aName} = @{bName};\n    @{bName} = @{tmpName};",
				"@{bName} = @{tmpName};\n    @{aName} = @{bName};",
			}},
			{ID: "tmpScope", Options: []string{"long @{tmpName} = @{sumOrder};", "long @{tmpName};\n    @{tmpName} = @{sumOrder};"}},
			{ID: "body", Options: []string{
				"if (@{filterShape})\n      @{countInc}\n    @{tmpScope}\n    @{rotation}",
				"@{tmpScope}\n    @{rotation}\n    if (@{filterShape})\n      @{countInc}",
			}},
			{ID: "printWhat", Options: []string{"@{cName}", "@{aName}"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "guardEmpty", Options: []string{"", "if (m < 1) {\n    System.out.println(0);\n    return;\n  }\n  "}},
			{ID: "extraTemp", Options: []string{"", "long last = 0;\n  "}},
			{ID: "cDecl", Options: []string{"int @{cName} = @{cInit};", "int @{cName};\n  @{cName} = @{cInit};"}},
			{ID: "aDecl", Options: []string{"long @{aName} = @{seedA};", "long @{aName};\n  @{aName} = @{seedA};"}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p4v2",
		MaxSteps: 100_000,
		Cases: []functest.Case{
			{Name: "1..15", Args: []interp.Value{int64(1), int64(15)}},     // 1,1,2,3,5,8,13 -> 7
			{Name: "2..8", Args: []interp.Value{int64(2), int64(8)}},       // 2,3,5,8 -> 4
			{Name: "1..1", Args: []interp.Value{int64(1), int64(1)}},       // 1,1 -> 2
			{Name: "4..6", Args: []interp.Value{int64(4), int64(6)}},       // 5 -> 1
			{Name: "10..100", Args: []interp.Value{int64(10), int64(100)}}, // 13,21,34,55,89 -> 5
			{Name: "1..1000", Args: []interp.Value{int64(1), int64(1000)}},
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P4-V2",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p4v2",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 9437184, L: 17.42, T: 0.26, P: 9, C: 14, M: 0.03, D: 248},
	})
}
