package match_test

import (
	"testing"

	"semfeed/internal/constraint"
	"semfeed/internal/java/parser"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// fig2a is the incorrect submission of Figure 2a (wrong even init, <=, wrong
// even condition, even never printed... the paper's running example).
const fig2a = `void assignment1(int[] a) {
  int even = 0;
  int odd = 0;
  for (int i = 0; i <= a.length; i++) {
    if (i % 2 == 1)
      odd += a[i];
    if (i % 2 == 1)
      even *= a[i];
  }
  System.out.println(odd);
  System.out.println(even);
}`

// fig2b is the correct submission of Figure 2b.
const fig2b = `void assignment1(int[] a) {
  int o = 0, e = 1;
  int i = 0;
  while (i < a.length ) {
    if (i % 2 == 1)
      o += a[i];
    if (i % 2 == 0)
      e *= a[i];
    i++;
  }
  System.out.print(o + ", " + e);
}`

// patternO is p_o of Figure 4: accessing odd positions sequentially.
func patternO(t *testing.T) *pattern.Compiled {
	t.Helper()
	p := &pattern.Pattern{
		Name: "p_o",
		Vars: []string{"s", "x"},
		Nodes: []pattern.Node{
			{ID: "u0", Type: "Untyped", Exact: []string{"s"}},
			{ID: "u1", Type: "Assign", Exact: []string{"x = 0"}, Approx: []string{"x ="},
				Feedback: pattern.NodeFeedback{Correct: "{x} is initialized to 0", Incorrect: "{x} should be initialized to 0"}},
			{ID: "u2", Type: "Assign", Exact: []string{"x++", "x += 1", "x = x + 1", "++x"},
				Approx:   []string{"x +=", "x = x +", "x--", "x -="},
				Feedback: pattern.NodeFeedback{Correct: "{x} is incremented by 1", Incorrect: "{x} should be incremented by 1"}},
			{ID: "u3", Type: "Cond", Exact: []string{"x < s.length"}, Approx: []string{"x <= s.length"},
				Feedback: pattern.NodeFeedback{Correct: "{x} does not go beyond {s}.length - 1", Incorrect: "{x} is out of bounds going beyond {s}.length - 1"}},
			{ID: "u4", Type: "Cond", Exact: []string{"x % 2 == 1"},
				Feedback: pattern.NodeFeedback{Correct: "You are using {x} % 2 == 1 to control that {x} is odd"}},
			{ID: "u5", Type: "Untyped", Exact: []string{"s[x]"}, Approx: []string{`re:${s}\[[^\]]*${x}[^\]]*\]`},
				Feedback: pattern.NodeFeedback{Correct: "{x} is used exactly to access {s}", Incorrect: "You should access {s} by using {x} exactly"}},
		},
		Edges: []pattern.Edge{
			{From: "u0", To: "u3", Type: "Data"},
			{From: "u0", To: "u5", Type: "Data"},
			{From: "u1", To: "u3", Type: "Data"},
			{From: "u1", To: "u5", Type: "Data"},
			{From: "u3", To: "u2", Type: "Ctrl"},
			{From: "u3", To: "u4", Type: "Ctrl"},
			{From: "u4", To: "u5", Type: "Ctrl"},
		},
		Present: "You are correctly accessing odd positions sequentially in an array",
		Missing: "You are not accessing odd positions sequentially in an array",
	}
	return pattern.MustCompile(p)
}

// patternA is p_a of Figure 5: conditional cumulative adding.
func patternA(t *testing.T) *pattern.Compiled {
	t.Helper()
	p := &pattern.Pattern{
		Name: "p_a",
		Vars: []string{"c"},
		Nodes: []pattern.Node{
			{ID: "u0", Type: "Assign", Exact: []string{"c = 0"}, Approx: []string{"c ="}},
			{ID: "u1", Type: "Cond", Exact: []string{""}, Approx: nil},
			{ID: "u2", Type: "Cond", Exact: []string{""}},
			{ID: "u3", Type: "Assign", Exact: []string{"c +="}, Approx: []string{"c ="}},
		},
		Edges: []pattern.Edge{
			{From: "u0", To: "u3", Type: "Data"},
			{From: "u1", To: "u2", Type: "Ctrl"},
			{From: "u2", To: "u3", Type: "Ctrl"},
		},
	}
	// u1/u2 match any condition: use a regex that matches anything.
	p.Nodes[1].Exact = []string{"re:."}
	p.Nodes[2].Exact = []string{"re:."}
	return pattern.MustCompile(p)
}

// patternP is p_p of Figure 6: assign and print to console.
func patternP(t *testing.T) *pattern.Compiled {
	t.Helper()
	p := &pattern.Pattern{
		Name: "p_p",
		Vars: []string{"d"},
		Nodes: []pattern.Node{
			{ID: "u0", Type: "Assign", Exact: []string{"d"}, Approx: nil},
			{ID: "u1", Type: "Call", Exact: []string{`re:System\.out\.print(ln)?\(.*\b${d}\b.*\)`}},
		},
		Edges: []pattern.Edge{
			{From: "u0", To: "u1", Type: "Data"},
		},
	}
	return pattern.MustCompile(p)
}

func buildGraph(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	return pdg.Build(m)
}

// TestPaperEmbeddingPO reproduces the Section III-B worked example: p_o
// embeds in the Figure 2a EPDG with γ(s)=a, γ(x)=i and u3 matched only
// approximately (i <= a.length).
func TestPaperEmbeddingPO(t *testing.T) {
	g := buildGraph(t, fig2a)
	po := patternO(t)
	embs := match.Find(po, g)
	if len(embs) == 0 {
		t.Fatalf("no embeddings of p_o in fig2a graph:\n%s", g)
	}
	// Both ifs of Figure 2a read i % 2 == 1 (the student's bug), so p_o
	// embeds twice; the paper's worked embedding is the odd-accumulation one.
	found := false
	for _, e := range embs {
		if e.Gamma["s"] != "a" || e.Gamma["x"] != "i" {
			continue
		}
		if g.Node(e.GraphNode("u5")).Content != "odd += a[i]" {
			continue
		}
		found = true
		if !e.Approx[po.NodeIndex("u3")] {
			t.Errorf("u3 should be an approximate (incorrect) match, got exact: %s", e.String())
		}
		if e.Approx[po.NodeIndex("u4")] || e.Approx[po.NodeIndex("u5")] {
			t.Errorf("u4/u5 should match exactly: %s", e.String())
		}
	}
	if !found {
		for _, e := range embs {
			t.Logf("embedding: %s", e.String())
		}
		t.Fatal("no embedding with γ(s)=a, γ(x)=i landing u5 on odd += a[i]")
	}
	if len(embs) != 2 {
		t.Errorf("got %d embeddings, want 2 (both ifs use i %% 2 == 1)", len(embs))
	}
}

// TestPaperEmbeddingCorrectSubmission checks p_o matches the correct
// submission of Figure 2b with every node exact.
func TestPaperEmbeddingCorrectSubmission(t *testing.T) {
	g := buildGraph(t, fig2b)
	po := patternO(t)
	embs := match.Find(po, g)
	if len(embs) != 1 {
		for _, e := range embs {
			t.Logf("embedding: %s", e.String())
		}
		t.Fatalf("want exactly 1 embedding, got %d", len(embs))
	}
	e := embs[0]
	if !e.AllCorrect() {
		t.Errorf("expected all-exact embedding, got %s", e.String())
	}
	if e.Gamma["s"] != "a" || e.Gamma["x"] != "i" {
		t.Errorf("γ = %v, want s->a x->i", e.Gamma)
	}
}

// TestPaperSearchSpace reproduces the Section IV search-space example: the
// Assign-typed nodes of p_a map to the six Assign nodes of the Figure 2a
// graph, the Cond-typed nodes to the three Cond nodes.
func TestPaperSearchSpace(t *testing.T) {
	g := buildGraph(t, fig2a)
	pa := patternA(t)
	phi := match.SearchSpace(pa, g)
	assigns := len(g.Index().Candidates(pdg.Assign))
	conds := len(g.Index().Candidates(pdg.Cond))
	if assigns != 6 || conds != 3 {
		t.Fatalf("graph has %d Assign, %d Cond nodes; want 6 and 3\n%s", assigns, conds, g)
	}
	if len(phi[pa.NodeIndex("u0")]) != assigns || len(phi[pa.NodeIndex("u3")]) != assigns {
		t.Errorf("Φ(u0)=%v Φ(u3)=%v, want the 6 Assign nodes", phi[0], phi[3])
	}
	if len(phi[pa.NodeIndex("u1")]) != conds || len(phi[pa.NodeIndex("u2")]) != conds {
		t.Errorf("Φ(u1)=%v Φ(u2)=%v, want the 3 Cond nodes", phi[1], phi[2])
	}
}

// TestPaperConstraints reproduces the Section III-C constraint examples over
// the correct submission: equality (p_o.u5 = p_a.u3), edge existence
// (p_a.u3 -Data-> p_p.u1) and containment (p_o.u5 contains c += s[x]).
func TestPaperConstraints(t *testing.T) {
	g := buildGraph(t, fig2b)
	po, pa, pp := patternO(t), patternA(t), patternP(t)
	reg := map[string]*pattern.Compiled{"p_o": po, "p_a": pa, "p_p": pp}

	embs := map[string][]match.Embedding{
		"p_o": match.Find(po, g),
		"p_a": match.Find(pa, g),
		"p_p": match.Find(pp, g),
	}
	for name, m := range embs {
		if len(m) == 0 {
			t.Fatalf("pattern %s has no embeddings", name)
		}
	}

	eq := constraint.MustCompile(&constraint.Constraint{
		Name: "same-accumulated-access", Kind: constraint.Equality,
		Pi: "p_o", Ui: "u5", Pj: "p_a", Uj: "u3",
	}, reg)
	if res := eq.Check(g, embs); res.Status != constraint.Correct {
		t.Errorf("equality constraint: got %s, want Correct", res.Status)
	}

	edge := constraint.MustCompile(&constraint.Constraint{
		Name: "accumulated-is-printed", Kind: constraint.EdgeExistence,
		Pi: "p_a", Ui: "u3", Pj: "p_p", Uj: "u1", EdgeType: "Data",
	}, reg)
	if res := edge.Check(g, embs); res.Status != constraint.Correct {
		t.Errorf("edge-existence constraint: got %s, want Correct", res.Status)
	}

	cont := constraint.MustCompile(&constraint.Constraint{
		Name: "odd-access-accumulates", Kind: constraint.Containment,
		Pi: "p_o", Ui: "u5", Expr: "c += s[x]", Supporting: []string{"p_a"},
	}, reg)
	if res := cont.Check(g, embs); res.Status != constraint.Correct {
		t.Errorf("containment constraint: got %s, want Correct", res.Status)
	}
}
