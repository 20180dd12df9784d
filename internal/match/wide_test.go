package match_test

import (
	"testing"

	"semfeed/internal/match"
)

// TestWideStatementWork is the first slice of the adversarial corpus: an
// assignment1 submission whose odd accumulation adds n more variables, so
// one Assign node offers every pattern variable n+3 candidates.
//
// WHEN every assignment1 pattern and group member runs over the widened
// graph, THEN the steps equal the ones the oracle search (reference_test.go)
// takes, which are the match steps the grader reports for these
// submissions, and the γ tries stay under a ceiling 1.25x the counts
// measured when slot-filtered injections landed. Before them, every
// injection of the fresh variables into the node's candidates was a try.
func TestWideStatementWork(t *testing.T) {
	cases := []struct {
		n          int
		steps      int64 // recorded with referenceFind
		gammaTries int64 // ceiling
	}{
		{60, 348, 377},
		{400, 1_708, 2_077},
		{1_600, 6_508, 8_077},
	}
	for _, c := range cases {
		g := wideGraph(t, c.n)
		var w match.Work
		for _, p := range assignmentPatterns("assignment1") {
			match.FindOpts(p, g, match.Options{Work: &w})
		}
		if w.Steps != c.steps {
			t.Errorf("n=%d: %d steps, the oracle takes %d", c.n, w.Steps, c.steps)
		}
		if w.GammaTries > c.gammaTries {
			t.Errorf("n=%d: %d γ tries, ceiling %d", c.n, w.GammaTries, c.gammaTries)
		}
		t.Logf("n=%d: %d steps, %d γ tries", c.n, w.Steps, w.GammaTries)
	}
}
