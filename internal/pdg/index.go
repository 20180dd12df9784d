package pdg

import "semfeed/internal/java/pretty"

// The candidate index groups a graph's nodes by type and precomputes, for
// every node, its typed in/out degrees and a neighbor-connectivity mask. The
// subgraph matcher (Algorithm 1) uses it to build its search space Φ without
// scanning every node for every pattern node, and to reject candidates that
// cannot possibly satisfy a pattern's edge structure before the backtracking
// search ever touches them.
//
// The index also holds the graph's token table: every rendering of every
// node split once into pretty.Tokens and interned as int32 token IDs, plus
// each node's variable names. Definition 6's r ⪯γ c is a contiguous
// token-run test, so template matching compares IDs and never re-tokenizes a
// rendering. IDs are per graph: the table lives and dies with its graph, so
// no process-wide table grows with the tokens students write.
//
// The index is built once, on first use, and cached on the graph: a graph
// never changes after NewGraph, so nothing invalidates it. Concurrent Index
// calls wait for the one build, which is what lets grading goroutines share
// a graph (the batch-engine access pattern). A graph no pattern is matched
// against never pays for the token table.

const numNodeTypes = len(nodeTypeNames)

// Index is the per-graph candidate index and token table consumed by the
// matcher.
type Index struct {
	byType [numNodeTypes][]int // node IDs per node type, ascending
	outDeg [][2]uint16         // per node ID, typed outgoing degree (EdgeType-indexed)
	inDeg  [][2]uint16         // per node ID, typed incoming degree
	nbrs   []uint32            // per node ID, neighbor-connectivity mask

	tokenIDs map[string]int32 // token text -> ID
	tokens   []string         // ID -> token text
	rend     [][]int32        // token IDs of every rendering, node by node
	vars     []int32          // token IDs of every node's Vars, node by node
	nodeAt   [][2]int32       // per node ID, its first index into rend and vars
}

// NeighborBit returns the mask bit recording "has an edge of type et, in the
// given direction, to a neighbor of node type nt". A pattern node's required
// bits form a mask; candidates whose mask lacks any required bit can never
// host an embedding (every pattern edge must map to a graph edge).
func NeighborBit(out bool, et EdgeType, nt NodeType) uint32 {
	bit := uint(et)*uint(numNodeTypes) + uint(nt)
	if !out {
		bit += 2 * uint(numNodeTypes)
	}
	return 1 << bit
}

// Index returns the graph's candidate index, building it on first use.
func (g *Graph) Index() *Index {
	g.idxOnce.Do(func() { g.idx = g.buildIndex() })
	return g.idx
}

func (g *Graph) buildIndex() *Index {
	ix := &Index{
		outDeg: make([][2]uint16, len(g.Nodes)),
		inDeg:  make([][2]uint16, len(g.Nodes)),
		nbrs:   make([]uint32, len(g.Nodes)),
	}
	for _, n := range g.Nodes {
		if t := int(n.Type); t >= 0 && t < numNodeTypes {
			ix.byType[t] = append(ix.byType[t], n.ID)
		}
	}
	for _, e := range g.Edges {
		ix.outDeg[e.From][e.Type]++
		ix.inDeg[e.To][e.Type]++
		ix.nbrs[e.From] |= NeighborBit(true, e.Type, g.Nodes[e.To].Type)
		ix.nbrs[e.To] |= NeighborBit(false, e.Type, g.Nodes[e.From].Type)
	}
	ix.buildTokens(g)
	return ix
}

// buildTokens fills the token table. All renderings' IDs share one backing
// array, sliced per rendering once every rendering is tokenized.
func (ix *Index) buildTokens(g *Graph) {
	nrend, nvars, bytes := 0, 0, 0
	for _, n := range g.Nodes {
		for _, r := range n.Renderings() {
			bytes += len(r)
		}
		nrend += 1 + len(n.Alts)
		nvars += len(n.Vars)
	}
	// Canonical renderings average over two bytes per token, and about a
	// third of a graph's tokens are distinct.
	ids := make([]int32, 0, bytes/2+nvars)
	ix.tokenIDs = make(map[string]int32, bytes/8)
	ix.tokens = make([]string, 0, bytes/8)
	ends := make([]int32, 0, nrend)
	ix.vars = make([]int32, 0, nvars)
	ix.nodeAt = make([][2]int32, len(g.Nodes)+1)
	for i, n := range g.Nodes {
		ix.nodeAt[i] = [2]int32{int32(len(ends)), int32(len(ix.vars))}
		for _, r := range n.Renderings() {
			for tok, j := pretty.NextToken(r, 0); tok != ""; tok, j = pretty.NextToken(r, j) {
				ids = append(ids, ix.intern(tok))
			}
			ends = append(ends, int32(len(ids)))
		}
		for _, v := range n.Vars {
			ix.vars = append(ix.vars, ix.intern(v))
		}
	}
	ix.nodeAt[len(g.Nodes)] = [2]int32{int32(len(ends)), int32(len(ix.vars))}
	ix.rend = make([][]int32, len(ends))
	start := int32(0)
	for i, end := range ends {
		ix.rend[i] = ids[start:end:end]
		start = end
	}
}

func (ix *Index) intern(tok string) int32 {
	if id, ok := ix.tokenIDs[tok]; ok {
		return id
	}
	id := int32(len(ix.tokens))
	ix.tokenIDs[tok] = id
	ix.tokens = append(ix.tokens, tok)
	return id
}

// Candidates returns the IDs of all nodes with the given type, ascending.
// The slice is shared — callers must not modify it.
func (ix *Index) Candidates(t NodeType) []int {
	if t < 0 || int(t) >= numNodeTypes {
		return nil
	}
	return ix.byType[t]
}

// OutDegree returns node id's outgoing degree counting only edges of type t.
func (ix *Index) OutDegree(id int, t EdgeType) int { return int(ix.outDeg[id][t]) }

// InDegree returns node id's incoming degree counting only edges of type t.
func (ix *Index) InDegree(id int, t EdgeType) int { return int(ix.inDeg[id][t]) }

// NeighborMask returns node id's neighbor-connectivity mask (see NeighborBit).
func (ix *Index) NeighborMask(id int) uint32 { return ix.nbrs[id] }

// TokenID returns the ID of a token or variable name of the graph, and false
// if no rendering and no variable of the graph is that string.
func (ix *Index) TokenID(s string) (int32, bool) {
	id, ok := ix.tokenIDs[s]
	return id, ok
}

// Token returns the text of a token ID.
func (ix *Index) Token(id int32) string { return ix.tokens[id] }

// NumTokens returns the number of distinct tokens and variable names in the
// graph; IDs run from 0 to NumTokens()-1.
func (ix *Index) NumTokens() int { return len(ix.tokens) }

// RenderingTokens returns the token IDs of each of node id's renderings, in
// Node.Renderings order. The slices are shared — callers must not modify
// them.
func (ix *Index) RenderingTokens(id int) [][]int32 {
	return ix.rend[ix.nodeAt[id][0]:ix.nodeAt[id+1][0]]
}

// VarTokens returns the token IDs of node id's Vars, in order. The slice is
// shared — callers must not modify it.
func (ix *Index) VarTokens(id int) []int32 {
	return ix.vars[ix.nodeAt[id][1]:ix.nodeAt[id+1][1]]
}
