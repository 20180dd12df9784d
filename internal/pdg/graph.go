// Package pdg implements extended program dependence graphs (EPDGs) as
// defined in Section III-A of the paper: one graph per method, nodes typed
// Assign/Break/Call/Cond/Decl/Return carrying a canonical Java expression,
// and edges typed Ctrl (control dependence) or Data (def-use dependence).
//
// Two construction choices follow the paper exactly:
//
//   - Transitive Ctrl edges are removed: a node is control-dependent only on
//     its innermost controlling condition.
//   - Data edges are computed on a one-iteration, conditions-taken
//     linearization of the method (the Bhattacharjee & Jamil convention):
//     no loop back-edges and no "condition not fulfilled" skip paths.
//
// A graph is immutable: the builder collects a method's nodes and edges and
// hands them to NewGraph, which lays out the adjacency once. Every method of
// Graph only reads, so graphs are safe to share across grading goroutines.
package pdg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// NodeType is the type of an EPDG node (Definition 1).
type NodeType int

// Node types from Definition 1 of the paper.
const (
	Assign NodeType = iota
	Break
	Call
	Cond
	Decl
	Return
)

var nodeTypeNames = [...]string{"Assign", "Break", "Call", "Cond", "Decl", "Return"}

// String returns the paper's name for the node type.
func (t NodeType) String() string {
	if t < 0 || int(t) >= len(nodeTypeNames) {
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
	return nodeTypeNames[t]
}

// ParseNodeType converts a name such as "Assign" back to a NodeType.
func ParseNodeType(s string) (NodeType, error) {
	for i, n := range nodeTypeNames {
		if n == s {
			return NodeType(i), nil
		}
	}
	return 0, fmt.Errorf("pdg: unknown node type %q", s)
}

// EdgeType is the type of an EPDG edge (Definition 2).
type EdgeType int

// Edge types from Definition 2 of the paper.
const (
	Ctrl EdgeType = iota
	Data
)

// String returns the paper's name for the edge type.
func (t EdgeType) String() string {
	if t == Ctrl {
		return "Ctrl"
	}
	return "Data"
}

// CondKind refines Cond nodes with the construct they were built from. The
// paper's node taxonomy (Definition 1) folds every controlling expression
// into one Cond type, which is all the matcher needs; the static-analysis
// layer additionally needs to know whether a Cond heads a loop (back edge),
// a for-each (implicit progress), a switch (multi-way dispatch) or a plain
// if, because the control-flow graph it derives differs for each.
type CondKind int

// Cond kinds. The zero value is a plain if condition, so graphs built before
// this field existed keep their meaning.
const (
	CondIf      CondKind = iota // if condition (or not a Cond node)
	CondLoop                    // while / do-while / for condition
	CondForEach                 // for-each iteration header
	CondSwitch                  // switch tag
)

var condKindNames = [...]string{"If", "Loop", "ForEach", "Switch"}

// String names the kind for diagnostics.
func (k CondKind) String() string {
	if k < 0 || int(k) >= len(condKindNames) {
		return fmt.Sprintf("CondKind(%d)", int(k))
	}
	return condKindNames[k]
}

// ParseEdgeType converts "Ctrl"/"Data" back to an EdgeType.
func ParseEdgeType(s string) (EdgeType, error) {
	switch s {
	case "Ctrl":
		return Ctrl, nil
	case "Data":
		return Data, nil
	}
	return 0, fmt.Errorf("pdg: unknown edge type %q", s)
}

// Node is a graph node v = (t_v, c): a typed Java expression.
type Node struct {
	ID      int
	Type    NodeType
	Content string   // canonical expression c (see internal/java/pretty)
	Alts    []string // alternative renderings (e.g. a declaration without its type)
	Vars    []string // distinct variable names in c, in first-use order
	Line    int      // source line, for diagnostics and repair hints

	// Defs and Uses record the variables written and read by this node; they
	// drive Data-edge construction and are exposed for tests and tooling.
	Defs []string
	Uses []string

	// Kind refines Cond nodes by originating construct (loop, for-each,
	// switch, plain if); zero for non-Cond nodes. See CondKind.
	Kind CondKind
	// HasDefault marks a CondSwitch node whose switch has a default case, so
	// the dispatch always enters some arm; flow analyses use it to decide
	// whether control can bypass the cases entirely.
	HasDefault bool
	// Else marks a node whose Ctrl edge comes from the else arm of its
	// controlling condition (both arms share the same Cond parent in the
	// paper's construction, which the matcher wants; flow analyses need the
	// arms apart).
	Else bool
	// Uninit marks a declaration without an initializer ("int x;"): the node
	// defines the variable's scope but assigns it no value, which the
	// use-before-definition analysis distinguishes from a real store.
	Uninit bool
	// Declares marks a node that introduces the variable it defines (local
	// declarations and for-each headers; parameters are Decl-typed already).
	// Variables assigned but never declared in the method are class fields,
	// which flow analyses must treat as escaping the method.
	Declares bool
	// WeakDef marks a non-killing definition (array element or field writes:
	// a[i] = e updates part of a, so earlier definitions of a survive).
	WeakDef bool

	// rend holds Renderings, fixed by NewGraph; one backs it for a node
	// without alternatives.
	rend []string
	one  [1]string
}

// Renderings returns the canonical content followed by any alternatives, as
// NewGraph fixed them (nil for a node in no graph). The slice is shared:
// callers must not modify it.
func (n *Node) Renderings() []string { return n.rend }

// String renders the node for diagnostics, e.g. "v3:Assign(int i = 0)".
func (n *Node) String() string {
	return fmt.Sprintf("v%d:%s(%s)", n.ID, n.Type, n.Content)
}

// Edge is a graph edge e = (v_s, v_t, t_e).
type Edge struct {
	From, To int
	Type     EdgeType
}

// Graph is an extended program dependence graph of one method. Build it with
// NewGraph; it never changes afterwards.
type Graph struct {
	Method string  // method name
	Nodes  []*Node // Nodes[i].ID == i
	Edges  []Edge  // ordered by (To, Type), so In(id) is one run of it

	inAt   []int32 // In(id) is Edges[inAt[id]:inAt[id+1]]
	out    []Edge  // Edges grouped by From, each group in Edges order
	outAt  []int32 // Out(id) is out[outAt[id]:outAt[id+1]]
	parent []int32 // per node, its control parent (see Parent)

	idxOnce sync.Once
	idx     *Index
}

// NewGraph makes the graph of the named method from its nodes and edges,
// taking ownership of both slices. It numbers the nodes by position, fixes
// their renderings, and lays out each node's in- and out-edges and its
// control parent. Edges must be distinct, name nodes of the graph and come
// ordered by (To, Type), as the builder emits them; NewGraph panics on
// edges out of that order.
func NewGraph(method string, nodes []*Node, edges []Edge) *Graph {
	if !slices.IsSortedFunc(edges, byTarget) {
		panic("pdg: NewGraph of " + method + ": edges not ordered by (To, Type)")
	}
	n := len(nodes)
	g := &Graph{
		Method: method,
		Nodes:  nodes,
		Edges:  edges,
		inAt:   make([]int32, n+1),
		out:    make([]Edge, len(edges)),
		outAt:  make([]int32, n+1),
		parent: make([]int32, n),
	}
	for i, nd := range nodes {
		nd.ID = i
		nd.one[0] = nd.Content
		nd.rend = append(nd.one[:1:1], nd.Alts...) // copies only with Alts
		g.parent[i] = -1
	}
	for _, e := range edges {
		g.inAt[e.To+1]++
		g.outAt[e.From]++
		if e.Type == Ctrl && int32(e.From) > g.parent[e.To] {
			g.parent[e.To] = int32(e.From)
		}
	}
	for i := 1; i <= n; i++ {
		g.inAt[i] += g.inAt[i-1]
		g.outAt[i] += g.outAt[i-1]
	}
	// outAt[id] now ends id's run of out; filling each run back to front
	// from the back of Edges leaves outAt[id] at its start and keeps the
	// run in Edges order.
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		g.outAt[e.From]--
		g.out[g.outAt[e.From]] = e
	}
	return g
}

// byTarget orders edges by (To, Type): the order of Graph.Edges and of each
// run of Out.
func byTarget(a, b Edge) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Type, b.Type)
}

// HasEdge reports whether the typed edge exists.
func (g *Graph) HasEdge(from, to int, typ EdgeType) bool {
	_, found := slices.BinarySearchFunc(g.Out(from), Edge{To: to, Type: typ}, byTarget)
	return found
}

// Out returns the outgoing edges of node id, ordered by target. The slice is
// shared: callers must not modify it.
func (g *Graph) Out(id int) []Edge { return g.out[g.outAt[id]:g.outAt[id+1]] }

// In returns the incoming edges of node id, Ctrl before Data. The slice is
// shared: callers must not modify it.
func (g *Graph) In(id int) []Edge { return g.Edges[g.inAt[id]:g.inAt[id+1]] }

// Parent returns node id's innermost controlling condition: the highest-ID
// source of its Ctrl in-edges, or -1 for a node no condition controls. The
// builder numbers nodes in program order, so under TransitiveCtrl too this
// is the condition the node is nested in directly.
func (g *Graph) Parent(id int) int { return int(g.parent[id]) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// String renders the whole graph in a compact diagnostic form.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EPDG %s: %d nodes, %d edges\n", g.Method, len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "  %s\n", n)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "  v%d -%s-> v%d\n", e.From, e.Type, e.To)
	}
	return sb.String()
}

// DOT renders the graph in Graphviz format. Data edges are solid, Ctrl edges
// dashed, matching the paper's figures.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n", g.Method)
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "  v%d [label=\"v%d %s\\n%s\"];\n", n.ID, n.ID, n.Type, dotEscape(n.Content))
	}
	for _, e := range g.Edges {
		style := "solid"
		if e.Type == Ctrl {
			style = "dashed"
		}
		fmt.Fprintf(&sb, "  v%d -> v%d [style=%s];\n", e.From, e.To, style)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func dotEscape(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s)
}
