package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// esc-LAB-3-P2-V2 (IIT Kanpur): a number is special when the sum of the
// cubes of its digits equals the number itself.
//
// |S| = 3^2 * 2^4 = 144, the smallest space of Table I — small enough that
// the benchmark harness enumerates it exhaustively. The Math.pow(d, 3)
// variant is functionally correct but outside the cube template, giving the
// "pattern variability" discrepancy flavour.
func init() {
	spec := &synth.Spec{
		Name: "esc-LAB-3-P2-V2",
		Template: `void lab3p2v2(int k) {
  int @{sumName} = @{sumInit};
  int t = k;
  while (t @{condOp}) {
    int @{dName} = t % 10;
    @{sumName} += @{cube};
    t @{divOp};
  }
  if (@{sumName} == k)
    System.out.println("special");
  else
    System.out.println("not special");
}`,
		Choices: []synth.Choice{
			{ID: "sumName", Options: []string{"sum", "s", "total"}},
			{ID: "cube", Options: []string{
				"@{dName} * @{dName} * @{dName}",
				"@{dName} * @{dName}",
				"(int) Math.pow(@{dName}, 3)",
			}},
			{ID: "sumInit", Options: []string{"0", "1"}},
			{ID: "divOp", Options: []string{"/= 10", "-= 10"}},
			{ID: "dName", Options: []string{"d", "dig"}},
			{ID: "condOp", Options: []string{"> 0", ">= 0"}},
		},
	}

	tests := &functest.Suite{
		Entry:    "lab3p2v2",
		MaxSteps: 100_000, // t >= 0 variants never terminate
		Cases: []functest.Case{
			{Name: "153", Args: []interp.Value{int64(153)}},   // special
			{Name: "371", Args: []interp.Value{int64(371)}},   // special
			{Name: "100", Args: []interp.Value{int64(100)}},   // not special
			{Name: "2", Args: []interp.Value{int64(2)}},       // 2^3 = 8 != 2
			{Name: "1", Args: []interp.Value{int64(1)}},       // special
			{Name: "9474", Args: []interp.Value{int64(9474)}}, // 4th powers, not cubes
		},
	}

	register(&Assignment{
		ID:     "esc-LAB-3-P2-V2",
		Course: "IIT Kanpur ESC101",
		Entry:  "lab3p2v2",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 144, L: 7.67, T: 0.17, P: 4, C: 5, M: 0.01, D: 0},
	})
}
