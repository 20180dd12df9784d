package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

// Assignment 1 (Section III): add odd positions and multiply even positions
// of an input array, printing both results.
//
// |S| = 5^4 * 2^10 = 640,000 — four 5-way choices (variable names, print
// form) and ten binary error-model choices. The space contains all three
// discrepancy classes of Section VI-B:
//
//   - odd loop starting at i = 1 (functionally equivalent, patterns flag it)
//   - results printed in swapped order (functional tests flag it, patterns
//     accept any order)
//   - even positions visited with i += 2 and no parity check (functionally
//     equivalent strategy the patterns do not cover)
func init() {
	spec := &synth.Spec{
		Name: "assignment1",
		Template: `void assignment1(int[] a) {
  int @{oddName} = @{oddInit};
  int @{evenName} = @{evenInit};
  for (int @{idxName} = @{oddIdxInit}; @{idxName} @{cmpOp} a.length; @{idxName}++)
    if (@{idxName} % 2 == @{oddRem})
      @{oddName} @{oddOp} a[@{oddAccess}];
  @{evenLoop}
  @{printForm}
}`,
		Choices: []synth.Choice{
			{ID: "oddName", Options: []string{"odd", "o", "sum", "res", "acc"}},
			{ID: "evenName", Options: []string{"even", "e", "prod", "mul", "p"}},
			{ID: "idxName", Options: []string{"i", "j", "k", "n", "idx"}},
			{ID: "printForm", Options: []string{
				"System.out.println(@{oddName});\n  System.out.println(@{evenName});",
				"System.out.println(@{evenName});\n  System.out.println(@{oddName});",
				"System.out.print(@{oddName} + \" \" + @{evenName});",
				"System.out.println(@{oddName} + \" \" + @{evenName});",
				"System.out.println(@{oddName});",
			}},
			{ID: "oddInit", Options: []string{"0", "1"}},
			{ID: "evenInit", Options: []string{"1", "0"}},
			{ID: "oddIdxInit", Options: []string{"0", "1"}},
			{ID: "cmpOp", Options: []string{"<", "<="}},
			{ID: "oddRem", Options: []string{"1", "0"}},
			{ID: "oddOp", Options: []string{"+=", "*="}},
			{ID: "oddAccess", Options: []string{"@{idxName}", "@{idxName} + 1"}},
			{ID: "evenLoop", Options: []string{
				"for (int @{idxName} = 0; @{idxName} @{cmpOp2} a.length; @{idxName}++)\n    if (@{idxName} % 2 == 0)\n      @{evenName} @{evenOp} a[@{idxName}];",
				"for (int @{idxName} = 0; @{idxName} @{cmpOp2} a.length; @{idxName} += 2)\n    @{evenName} @{evenOp} a[@{idxName}];",
			}},
			{ID: "cmpOp2", Options: []string{"<", "<="}},
			{ID: "evenOp", Options: []string{"*=", "+="}},
		},
	}

	arr := func(vals ...int64) *interp.Array {
		a := &interp.Array{Elem: "int"}
		for _, v := range vals {
			a.Elems = append(a.Elems, v)
		}
		return a
	}
	tests := &functest.Suite{
		Entry: "assignment1",
		Cases: []functest.Case{
			{Name: "even-length", Args: []interp.Value{arr(3, 4, 5, 6)}},
			{Name: "single", Args: []interp.Value{arr(7)}},
			{Name: "odd-length", Args: []interp.Value{arr(2, 3, 4, 5, 6, 7, 8)}},
			{Name: "empty", Args: []interp.Value{arr()}},
			{Name: "longer", Args: []interp.Value{arr(5, 2, 4, 1, 5, 9, 2, 6)}},
			{Name: "zeros", Args: []interp.Value{arr(0, 1, 0, 1)}},
		},
	}

	register(&Assignment{
		ID:     "assignment1",
		Course: "MIT 6.00x (adapted)",
		Entry:  "assignment1",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 640000, L: 12.23, T: 0.18, P: 6, C: 4, M: 0.03, D: 24},
	})
}
