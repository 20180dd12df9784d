package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P2-V1 (IIT Kanpur): print n such that fib(n) <= k < fib(n+1),
// with fib(1) = fib(2) = 1.
//
// |S| = 3^3 * 2^18 = 7,077,888 — the largest space after P4-V2. The paper's
// 592 discrepancies come from functionally equivalent advance conditions
// (their fib(n-1) <= k redundant lower limit); here the equivalents are the
// redundant compound condition a <= k && b <= k and the commuted sum b + a.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P2-V1",
		Template: `void lab3p2v1(int k) {
  @{guardZero}@{seedCheck}@{extraTemp}@{nDecl}
  @{abDecl}
  while (@{advShape}) {
    @{body}
  }
  System.out.@{printCall}(@{printWhat});
}`,
		Choices: []synth.Choice{
			{ID: "aName", Options: []string{"a", "x", "p"}},
			{ID: "bName", Options: []string{"b", "y", "q"}},
			{ID: "tmpName", Options: []string{"c", "z", "t"}},
			{ID: "nName", Options: []string{"n", "cnt"}},
			{ID: "nInit", Options: []string{"2", "1"}},
			{ID: "nDecl", Options: []string{"int @{nName} = @{nInit};", "int @{nName};\n  @{nName} = @{nInit};"}},
			{ID: "aInit", Options: []string{"1", "0"}},
			{ID: "bInit", Options: []string{"1", "2"}},
			{ID: "advCmp", Options: []string{"<=", "<"}},
			{ID: "advShape", Options: []string{"@{bName} @{advCmp} k", "@{aName} @{advCmp} k && @{bName} @{advCmp} k"}},
			{ID: "sumOrder", Options: []string{"@{aName} + @{bName}", "@{bName} + @{aName}"}},
			{ID: "tmpScope", Options: []string{"long @{tmpName} = @{sumOrder};", "long @{tmpName};\n    @{tmpName} = @{sumOrder};"}},
			{ID: "rotation", Options: []string{
				"@{aName} = @{bName};\n    @{bName} = @{tmpName};",
				"@{bName} = @{tmpName};\n    @{aName} = @{bName};",
			}},
			{ID: "abDecl", Options: []string{
				"long @{aName} = @{aInit};\n  long @{bName} = @{bInit};",
				"long @{aName} = @{aInit}, @{bName} = @{bInit};",
			}},
			{ID: "incStmt", Options: []string{"@{nName}++;", "@{nName} += 1;"}},
			{ID: "body", Options: []string{
				"@{tmpScope}\n    @{rotation}\n    @{incStmt}",
				"@{incStmt}\n    @{tmpScope}\n    @{rotation}",
			}},
			{ID: "printWhat", Options: []string{"@{nName}", "@{bName}"}},
			{ID: "printCall", Options: []string{"println", "print"}},
			{ID: "guardZero", Options: []string{"", "if (k <= 0) {\n    System.out.println(0);\n    return;\n  }\n  "}},
			{ID: "seedCheck", Options: []string{"", "if (k == 1) {\n    System.out.println(2);\n    return;\n  }\n  "}},
			{ID: "extraTemp", Options: []string{"", "int steps = 0;\n  "}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p2v1",
		MaxSteps: 100_000,
		Cases: []functest.Case{
			{Name: "k=1", Args: []interp.Value{int64(1)}},
			{Name: "k=2", Args: []interp.Value{int64(2)}},
			{Name: "k=4", Args: []interp.Value{int64(4)}},
			{Name: "k=5", Args: []interp.Value{int64(5)}},
			{Name: "k=21", Args: []interp.Value{int64(21)}},
			{Name: "k=100", Args: []interp.Value{int64(100)}},
			{Name: "k=100000", Args: []interp.Value{int64(100000)}},
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P2-V1",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p2v1",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 7077888, L: 16.75, T: 0.20, P: 8, C: 13, M: 0.03, D: 592},
	})
}
