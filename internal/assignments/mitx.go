package assignments

import (
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/synth"
)

func dblArray(vals ...float64) *interp.Array {
	a := &interp.Array{Elem: "double"}
	for _, v := range vals {
		a.Elems = append(a.Elems, v)
	}
	return a
}

// mitx-derivatives (MIT 6.00x): print the coefficients of the derivative of
// the polynomial whose coefficients are the input array (a[i] is the
// coefficient of x^i).
//
// |S| = 3^2 * 2^6 = 576. Table I reports zero discrepancies, so every choice
// is either an exact-template variant or a genuine error.
func init() {
	spec := &synth.Spec{
		Name: "mitx-derivatives",
		Template: `void derivative(double[] a) {
  double[] @{rName} = new double[@{sizeExpr}];
  for (int @{idxName} = @{startIdx}; @{idxName} @{cmpOp} a.length; @{idxName}++)
    @{rName}[@{idxName} - 1] = @{powRule};
  for (int j = 0; j < @{rName}.length; j++)
    System.out.print(@{rName}[j] + @{printSep});
}`,
		Choices: []synth.Choice{
			{ID: "rName", Options: []string{"r", "res", "deriv"}},
			{ID: "idxName", Options: []string{"i", "p", "q"}},
			{ID: "startIdx", Options: []string{"1", "0"}},
			{ID: "sizeExpr", Options: []string{"a.length - 1", "a.length"}},
			{ID: "powRule", Options: []string{"a[@{idxName}] * @{powFactor}", "@{powFactor} * a[@{idxName}]"}},
			{ID: "powFactor", Options: []string{"@{idxName}", "(@{idxName} + 1)"}},
			{ID: "cmpOp", Options: []string{"<", "<="}},
			{ID: "printSep", Options: []string{"\" \"", "\"\\n\""}},
		},
	}

	tests := &functest.Suite{
		Entry: "derivative",
		Cases: []functest.Case{
			{Name: "linear", Args: []interp.Value{dblArray(3, 2)}},              // d(2x+3) = 2
			{Name: "quadratic", Args: []interp.Value{dblArray(1, 0, 5)}},        // 0, 10
			{Name: "cubic", Args: []interp.Value{dblArray(4, 3, 2, 1)}},         // 3, 4, 3
			{Name: "quartic", Args: []interp.Value{dblArray(0, 1, 1, 1, 1)}},    // 1, 2, 3, 4
			{Name: "fractions", Args: []interp.Value{dblArray(0.5, 1.5, -2.5)}}, // 1.5, -5
		},
	}

	register(&Assignment{
		ID:     "mitx-derivatives",
		Course: "MIT 6.00x",
		Entry:  "derivative",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 576, L: 5.75, T: 0.12, P: 3, C: 4, M: 0.03, D: 0},
	})
}

// mitx-polynomials (MIT 6.00x): print the value of the polynomial at x.
//
// |S| = 3 * 2^8 = 768.
func init() {
	spec := &synth.Spec{
		Name: "mitx-polynomials",
		Template: `void evaluate(double[] a, double x) {
  double @{sumName} = @{sumInit};
  for (int @{idxName} = @{startIdx}; @{idxName} @{cmpOp} a.length; @{idxName}++)
    @{sumName} @{accStep};
  System.out.@{printCall}(@{sumName});
}`,
		Choices: []synth.Choice{
			{ID: "sumName", Options: []string{"sum", "s", "val"}},
			{ID: "sumInit", Options: []string{"0", "1"}},
			{ID: "startIdx", Options: []string{"0", "1"}},
			{ID: "cmpOp", Options: []string{"<", "<="}},
			{ID: "powArgs", Options: []string{"Math.pow(x, @{idxName})", "Math.pow(@{idxName}, x)"}},
			{ID: "term", Options: []string{"a[@{idxName}] * @{powArgs}", "@{powArgs} * a[@{idxName}]"}},
			{ID: "accStep", Options: []string{"+= @{term}", "= @{sumName} + @{term}"}},
			{ID: "idxName", Options: []string{"i", "j"}},
			{ID: "printCall", Options: []string{"println", "print"}},
		},
	}

	tests := &functest.Suite{
		Entry: "evaluate",
		Cases: []functest.Case{
			{Name: "constant", Args: []interp.Value{dblArray(7), float64(3)}},            // 7
			{Name: "line-at-2", Args: []interp.Value{dblArray(1, 2), float64(2)}},        // 5
			{Name: "quad-at-3", Args: []interp.Value{dblArray(1, 0, 2), float64(3)}},     // 19
			{Name: "cubic-at-1", Args: []interp.Value{dblArray(1, 1, 1, 1), float64(1)}}, // 4
			{Name: "at-zero", Args: []interp.Value{dblArray(5, 4, 3), float64(0)}},       // 5
			{Name: "negative-x", Args: []interp.Value{dblArray(0, 1, 1), float64(-2)}},   // 2
		},
	}

	register(&Assignment{
		ID:     "mitx-polynomials",
		Course: "MIT 6.00x",
		Entry:  "evaluate",
		Synth:  spec,
		Tests:  tests,
		Paper:  PaperRow{S: 768, L: 6.67, T: 0.12, P: 4, C: 4, M: 0.01, D: 0},
	})
}
