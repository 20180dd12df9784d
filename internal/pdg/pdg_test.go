package pdg_test

import (
	"strings"
	"testing"
	"testing/quick"

	"semfeed/internal/java/parser"
	"semfeed/internal/pdg"
)

const fig2aSrc = `void assignment1(int[] a) {
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

func build(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	return pdg.Build(m)
}

func nodeByContent(t *testing.T, g *pdg.Graph, content string) *pdg.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Content == content {
			return n
		}
	}
	t.Fatalf("no node with content %q in\n%s", content, g)
	return nil
}

// TestFig3EPDG reproduces the structure of the paper's Figure 3 (E2).
func TestFig3EPDG(t *testing.T) {
	g := build(t, fig2aSrc)
	if len(g.Nodes) != 12 {
		t.Fatalf("want 12 nodes, got %d\n%s", len(g.Nodes), g)
	}
	if got := len(g.Index().Candidates(pdg.Assign)); got != 6 {
		t.Errorf("Assign nodes = %d, want 6", got)
	}
	if got := len(g.Index().Candidates(pdg.Cond)); got != 3 {
		t.Errorf("Cond nodes = %d, want 3", got)
	}
	if got := len(g.Index().Candidates(pdg.Call)); got != 2 {
		t.Errorf("Call nodes = %d, want 2", got)
	}
	if got := len(g.Index().Candidates(pdg.Decl)); got != 1 {
		t.Errorf("Decl nodes = %d, want 1", got)
	}

	loop := nodeByContent(t, g, "i <= a.length")
	if1 := nodeByContent(t, g, "i % 2 == 1")
	oddAcc := nodeByContent(t, g, "odd += a[i]")
	oddInit := nodeByContent(t, g, "int odd = 0")
	evenInit := nodeByContent(t, g, "int even = 0")
	printOdd := nodeByContent(t, g, "System.out.println(odd)")
	printEven := nodeByContent(t, g, "System.out.println(even)")
	iInit := nodeByContent(t, g, "int i = 0")
	inc := nodeByContent(t, g, "i++")

	// Control dependence: the if is controlled by the loop; the accumulation
	// by its if only (transitive loop edge removed).
	if !g.HasEdge(loop.ID, if1.ID, pdg.Ctrl) {
		t.Error("missing Ctrl loop -> if")
	}
	if !g.HasEdge(if1.ID, oddAcc.ID, pdg.Ctrl) {
		t.Error("missing Ctrl if -> odd accumulation")
	}
	if g.HasEdge(loop.ID, oddAcc.ID, pdg.Ctrl) {
		t.Error("transitive Ctrl edge loop -> accumulation must be removed")
	}

	// Data dependence under the one-iteration linearization.
	if !g.HasEdge(oddInit.ID, oddAcc.ID, pdg.Data) {
		t.Error("missing Data odd init -> accumulation")
	}
	if !g.HasEdge(oddAcc.ID, printOdd.ID, pdg.Data) {
		t.Error("missing Data accumulation -> print")
	}
	// The even initialization is killed by even *= a[i] before the print:
	// no "loop may not run" edge (the Bhattacharjee & Jamil convention).
	if g.HasEdge(evenInit.ID, printEven.ID, pdg.Data) {
		t.Error("even init must not reach the print under the linearized convention")
	}
	// No loop-carried edges: i++ feeds nothing (its uses come next iteration).
	for _, e := range g.Out(inc.ID) {
		if e.Type == pdg.Data {
			t.Errorf("unexpected loop-carried Data edge from i++ to v%d", e.To)
		}
	}
	// The for-update reads the init.
	if !g.HasEdge(iInit.ID, inc.ID, pdg.Data) {
		t.Error("missing Data i init -> i++")
	}
}

func TestConservativeDataAblation(t *testing.T) {
	m, err := parser.ParseMethod(fig2aSrc)
	if err != nil {
		t.Fatal(err)
	}
	paper := pdg.BuildWith(m, pdg.BuildOpts{})
	cons := pdg.BuildWith(m, pdg.BuildOpts{ConservativeData: true})
	if len(cons.Edges) <= len(paper.Edges) {
		t.Errorf("conservative convention should add edges: %d vs %d", len(cons.Edges), len(paper.Edges))
	}
	// Under the conservative convention the loop may not run, so the even
	// initialization reaches the print.
	var evenInit, printEven *pdg.Node
	for _, n := range cons.Nodes {
		switch n.Content {
		case "int even = 0":
			evenInit = n
		case "System.out.println(even)":
			printEven = n
		}
	}
	if !cons.HasEdge(evenInit.ID, printEven.ID, pdg.Data) {
		t.Error("conservative: even init should reach the print")
	}
}

func TestTransitiveCtrlAblation(t *testing.T) {
	src := `void f(int n) {
	  while (n > 0) {
	    if (n % 2 == 0) {
	      if (n % 3 == 0)
	        System.out.println(n);
	    }
	    n--;
	  }
	}`
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	paper := pdg.BuildWith(m, pdg.BuildOpts{})
	trans := pdg.BuildWith(m, pdg.BuildOpts{TransitiveCtrl: true})
	ctrl := func(g *pdg.Graph) int {
		n := 0
		for _, e := range g.Edges {
			if e.Type == pdg.Ctrl {
				n++
			}
		}
		return n
	}
	if ctrl(trans) <= ctrl(paper) {
		t.Errorf("transitive variant should have more Ctrl edges: %d vs %d", ctrl(trans), ctrl(paper))
	}
	// The print is three conditions deep: 1 edge reduced, 3 transitive.
	if got := ctrl(trans) - ctrl(paper); got != 3 {
		t.Errorf("expected 3 extra transitive edges, got %d", got)
	}
}

func TestIfElseBranchesMerge(t *testing.T) {
	g := build(t, `void f(int n) {
	  int x = 0;
	  if (n > 0)
	    x = 1;
	  else
	    x = 2;
	  System.out.println(x);
	}`)
	one := nodeByContent(t, g, "x = 1")
	two := nodeByContent(t, g, "x = 2")
	pr := nodeByContent(t, g, "System.out.println(x)")
	if !g.HasEdge(one.ID, pr.ID, pdg.Data) || !g.HasEdge(two.ID, pr.ID, pdg.Data) {
		t.Error("both branch definitions must reach the print")
	}
	init := nodeByContent(t, g, "int x = 0")
	if g.HasEdge(init.ID, pr.ID, pdg.Data) {
		t.Error("the initial definition is killed on every branch")
	}
}

func TestArrayStoreIsWeakDef(t *testing.T) {
	g := build(t, `void f(int[] a) {
	  int[] r = new int[a.length];
	  r[0] = 1;
	  r[1] = 2;
	  System.out.println(r.length);
	}`)
	alloc := nodeByContent(t, g, "int[] r = new int[a.length]")
	s0 := nodeByContent(t, g, "r[0] = 1")
	s1 := nodeByContent(t, g, "r[1] = 2")
	pr := nodeByContent(t, g, "System.out.println(r.length)")
	for _, def := range []*pdg.Node{alloc, s0, s1} {
		if !g.HasEdge(def.ID, pr.ID, pdg.Data) {
			t.Errorf("weak definition %s should reach the print", def)
		}
	}
}

func TestDoWhileBodyNotControlled(t *testing.T) {
	g := build(t, `void f(int n) {
	  do {
	    n--;
	  } while (n > 0);
	}`)
	dec := nodeByContent(t, g, "n--")
	cond := nodeByContent(t, g, "n > 0")
	if g.HasEdge(cond.ID, dec.ID, pdg.Ctrl) {
		t.Error("do-while body executes at least once; it is not control-dependent on the condition")
	}
	if !g.HasEdge(dec.ID, cond.ID, pdg.Data) {
		t.Error("the condition reads the post-body definition")
	}
}

func TestSwitchCases(t *testing.T) {
	g := build(t, `void f(int n) {
	  int r = 0;
	  switch (n) {
	  case 1:
	    r = 10;
	    break;
	  default:
	    r = 20;
	  }
	  System.out.println(r);
	}`)
	tag := nodeByContent(t, g, "n")
	if tag.Type != pdg.Cond {
		t.Errorf("switch tag should be a Cond node, got %s", tag.Type)
	}
	ten := nodeByContent(t, g, "r = 10")
	twenty := nodeByContent(t, g, "r = 20")
	pr := nodeByContent(t, g, "System.out.println(r)")
	if !g.HasEdge(tag.ID, ten.ID, pdg.Ctrl) || !g.HasEdge(tag.ID, twenty.ID, pdg.Ctrl) {
		t.Error("case bodies are controlled by the switch tag")
	}
	if !g.HasEdge(ten.ID, pr.ID, pdg.Data) || !g.HasEdge(twenty.ID, pr.ID, pdg.Data) {
		t.Error("both case definitions reach the print")
	}
	brk := nodeByContent(t, g, "break")
	if brk.Type != pdg.Break {
		t.Errorf("break node type = %s", brk.Type)
	}
}

func TestMultiDeclaratorSplitsNodes(t *testing.T) {
	g := build(t, `void f() { int o = 0, e = 1; }`)
	nodeByContent(t, g, "int o = 0")
	nodeByContent(t, g, "int e = 1")
}

func TestReturnAndThrowNodes(t *testing.T) {
	g := build(t, `int f(int x) {
	  if (x < 0)
	    throw new File("bad");
	  return x * 2;
	}`)
	th := nodeByContent(t, g, `throw new File("bad")`)
	ret := nodeByContent(t, g, "return x * 2")
	if th.Type != pdg.Return || ret.Type != pdg.Return {
		t.Errorf("throw/return types: %s, %s", th.Type, ret.Type)
	}
}

func TestDOTOutput(t *testing.T) {
	g := build(t, `void f() { int x = 0; }`)
	dot := g.DOT()
	for _, want := range []string{"digraph", "v0", "int x = 0"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// Graph invariants checked over every assignment-like random rendering are
// in internal/assignments; here quick-check structural invariants on a
// parameterized synthetic program.
func TestQuickGraphInvariants(t *testing.T) {
	f := func(loops, ifs uint8) bool {
		nl := int(loops%3) + 1
		ni := int(ifs % 3)
		var sb strings.Builder
		sb.WriteString("void f(int n) {\n int acc = 0;\n")
		for l := 0; l < nl; l++ {
			sb.WriteString("for (int i = 0; i < n; i++) {\n")
			for k := 0; k < ni; k++ {
				sb.WriteString("if (i % 2 == 0)\n acc += i;\n")
			}
			sb.WriteString("}\n")
		}
		sb.WriteString("System.out.println(acc);\n}")
		m, err := parser.ParseMethod(sb.String())
		if err != nil {
			return false
		}
		g := pdg.Build(m)
		// Invariant 1: every edge endpoint is a valid node.
		for _, e := range g.Edges {
			if g.Node(e.From) == nil || g.Node(e.To) == nil {
				return false
			}
		}
		// Invariant 2: Ctrl edges originate only from Cond nodes.
		for _, e := range g.Edges {
			if e.Type == pdg.Ctrl && g.Node(e.From).Type != pdg.Cond {
				return false
			}
		}
		// Invariant 3: Data edges originate from defining nodes.
		for _, e := range g.Edges {
			if e.Type == pdg.Data && len(g.Node(e.From).Defs) == 0 {
				return false
			}
		}
		// Invariant 4: no self edges, no duplicate edges.
		seen := map[[3]int]bool{}
		for _, e := range g.Edges {
			if e.From == e.To {
				return false
			}
			k := [3]int{e.From, e.To, int(e.Type)}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
