package pdg

import (
	"sync"
	"testing"
)

func indexFixture() *Graph {
	return NewGraph("f", []*Node{
		{Type: Decl, Content: "int x = 0"},   // v0
		{Type: Cond, Content: "x < 10"},      // v1
		{Type: Assign, Content: "x = x + 1"}, // v2
		{Type: Return, Content: "return x"},  // v3
	}, []Edge{
		{From: 0, To: 1, Type: Data},
		{From: 1, To: 2, Type: Ctrl},
		{From: 0, To: 2, Type: Data},
		{From: 2, To: 3, Type: Data},
	})
}

func TestIndexCandidatesAndDegrees(t *testing.T) {
	g := indexFixture()
	ix := g.Index()
	if got := ix.Candidates(Assign); len(got) != 1 || got[0] != 2 {
		t.Errorf("Candidates(Assign) = %v, want [2]", got)
	}
	if got := ix.Candidates(Break); got != nil {
		t.Errorf("Candidates(Break) = %v, want none", got)
	}
	if d := ix.OutDegree(0, Data); d != 2 {
		t.Errorf("OutDegree(v0, Data) = %d, want 2", d)
	}
	if d := ix.OutDegree(0, Ctrl); d != 0 {
		t.Errorf("OutDegree(v0, Ctrl) = %d, want 0", d)
	}
	if d := ix.InDegree(2, Ctrl); d != 1 {
		t.Errorf("InDegree(v2, Ctrl) = %d, want 1", d)
	}
	// v2 has an outgoing Data edge to a Return node and an incoming Ctrl
	// edge from a Cond node; it has no outgoing Ctrl edges at all.
	m := ix.NeighborMask(2)
	if m&NeighborBit(true, Data, Return) == 0 {
		t.Error("v2 mask missing out-Data→Return bit")
	}
	if m&NeighborBit(false, Ctrl, Cond) == 0 {
		t.Error("v2 mask missing in-Ctrl←Cond bit")
	}
	if m&NeighborBit(true, Ctrl, Return) != 0 {
		t.Error("v2 mask has spurious out-Ctrl→Return bit")
	}
}

// TestIndexConcurrentBuild races many first readers on a freshly built
// graph: every one must get the same index, fully built. Run with -race.
func TestIndexConcurrentBuild(t *testing.T) {
	g := indexFixture()
	got := make([]*Index, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := g.Index()
			if len(ix.Candidates(Assign)) != 1 || ix.OutDegree(0, Data) != 2 {
				t.Error("concurrent Index returned inconsistent data")
			}
			got[i] = ix
		}()
	}
	wg.Wait()
	for _, ix := range got {
		if ix != got[0] {
			t.Fatal("concurrent Index calls built more than one index")
		}
	}
}
