package pdg_test

import (
	"fmt"
	"slices"
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/java/parser"
	"semfeed/internal/pdg"
)

// TestBuildEdgeInvariants checks what NewGraph's layout relies on, over
// every method of every seed-1 sampled submission of every assignment, under
// each construction convention and all three together: the builder adds no
// edge twice and emits the edges in (To, Type) order (NewGraph panics
// otherwise), and In, Out, HasEdge and Parent agree with a scan of Edges.
func TestBuildEdgeInvariants(t *testing.T) {
	conventions := []struct {
		name string
		opts pdg.BuildOpts
	}{
		{"paper", pdg.BuildOpts{}},
		{"transitive-ctrl", pdg.BuildOpts{TransitiveCtrl: true}},
		{"conservative-data", pdg.BuildOpts{ConservativeData: true}},
		{"normalize-else", pdg.BuildOpts{NormalizeElse: true}},
		{"all", pdg.BuildOpts{TransitiveCtrl: true, ConservativeData: true, NormalizeElse: true}},
	}
	graphs, edges := 0, 0
	for _, a := range assignments.All() {
		for _, k := range a.Synth.SampleSeed(200, 1) {
			unit, err := parser.Parse(a.Synth.Render(k))
			if err != nil {
				continue // a syntax error builds no graph
			}
			for _, c := range conventions {
				for method, g := range pdg.BuildAllWith(unit, c.opts) {
					if err := edgeInvariants(g); err != nil {
						t.Fatalf("%s submission %d, %s, method %s: %v\n%s", a.ID, k, c.name, method, err, g)
					}
					graphs++
					edges += len(g.Edges)
				}
			}
		}
	}
	if graphs == 0 {
		t.Fatal("no graph built")
	}
	t.Logf("%d graphs, %d edges", graphs, edges)
}

// TestNewGraphRejectsUnorderedEdges pins that NewGraph refuses edges out of
// (To, Type) order rather than reorder them, so a builder that emitted them
// so could not change the order of Edges, String and DOT unnoticed.
func TestNewGraphRejectsUnorderedEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGraph accepted a Data edge before a Ctrl edge into the same node")
		}
	}()
	pdg.NewGraph("f", []*pdg.Node{{Type: pdg.Cond}, {Type: pdg.Decl}, {Type: pdg.Assign}}, []pdg.Edge{
		{From: 1, To: 2, Type: pdg.Data},
		{From: 0, To: 2, Type: pdg.Ctrl},
	})
}

// edgeInvariants returns the first invariant g breaks, or nil.
func edgeInvariants(g *pdg.Graph) error {
	n := len(g.Nodes)
	has := make([]bool, 2*n*n) // has[(from*n+to)*2+type]
	for _, e := range g.Edges {
		k := (e.From*n+e.To)*2 + int(e.Type)
		if has[k] {
			return fmt.Errorf("duplicate edge %v", e)
		}
		has[k] = true
	}
	for id := 0; id < n; id++ {
		var in, out []pdg.Edge
		parent := -1
		for _, e := range g.Edges {
			if e.To == id {
				in = append(in, e)
				if e.Type == pdg.Ctrl && e.From > parent {
					parent = e.From
				}
			}
			if e.From == id {
				out = append(out, e)
			}
		}
		if !slices.Equal(g.In(id), in) {
			return fmt.Errorf("In(%d) = %v, Edges give %v", id, g.In(id), in)
		}
		if !slices.Equal(g.Out(id), out) {
			return fmt.Errorf("Out(%d) = %v, Edges give %v", id, g.Out(id), out)
		}
		if g.Parent(id) != parent {
			return fmt.Errorf("Parent(%d) = %d, highest Ctrl source %d", id, g.Parent(id), parent)
		}
		for to := 0; to < n; to++ {
			for _, typ := range []pdg.EdgeType{pdg.Ctrl, pdg.Data} {
				if g.HasEdge(id, to, typ) != has[(id*n+to)*2+int(typ)] {
					return fmt.Errorf("HasEdge(%d, %d, %v) disagrees with Edges", id, to, typ)
				}
			}
		}
	}
	return nil
}

// TestEPDGBuildAllocs bounds the allocations of one build of
// BenchmarkEPDGBuild's input, rit-all-g-medals' reference method.
func TestEPDGBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const ceiling = 190
	m, err := parser.ParseMethod(assignments.Get("rit-all-g-medals").Reference())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { pdg.Build(m) })
	if allocs > ceiling {
		t.Errorf("%.0f allocations per build, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per build", allocs)
}
