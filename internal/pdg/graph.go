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
package pdg

import (
	"fmt"
	"strings"
	"sync/atomic"
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

	// rend caches Renderings once the node is in a graph (see AddNode); one
	// backs it for a node without alternatives.
	rend []string
	one  [1]string
}

// Renderings returns the canonical content followed by any alternatives.
// For a node in a graph the slice is computed once, when the node is added,
// and shared: callers must not modify it.
func (n *Node) Renderings() []string {
	if n.rend != nil {
		return n.rend
	}
	return n.renderings()
}

func (n *Node) renderings() []string {
	out := make([]string, 0, 1+len(n.Alts))
	out = append(out, n.Content)
	return append(out, n.Alts...)
}

// String renders the node for diagnostics, e.g. "v3:Assign(int i = 0)".
func (n *Node) String() string {
	return fmt.Sprintf("v%d:%s(%s)", n.ID, n.Type, n.Content)
}

// Edge is a graph edge e = (v_s, v_t, t_e).
type Edge struct {
	From, To int
	Type     EdgeType
}

// Graph is an extended program dependence graph of one method.
type Graph struct {
	Method string // method name
	Nodes  []*Node
	Edges  []Edge

	adj map[edgeKey]bool
	out map[int][]Edge
	in  map[int][]Edge

	// idx caches the candidate index (see Index); mutations invalidate it.
	idx atomic.Pointer[Index]
}

type edgeKey struct {
	from, to int
	typ      EdgeType
}

// NewGraph returns an empty graph for the named method.
func NewGraph(method string) *Graph {
	return &Graph{
		Method: method,
		adj:    make(map[edgeKey]bool),
		out:    make(map[int][]Edge),
		in:     make(map[int][]Edge),
	}
}

// AddNode appends a node, assigning it the next ID, and returns it. The
// node's Content and Alts must be final: its renderings are fixed here.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = len(g.Nodes)
	if len(n.Alts) == 0 {
		n.one[0] = n.Content
		n.rend = n.one[:]
	} else {
		n.rend = n.renderings()
	}
	g.Nodes = append(g.Nodes, n)
	g.idx.Store(nil)
	return n
}

// AddEdge inserts an edge unless it is already present.
func (g *Graph) AddEdge(from, to int, typ EdgeType) {
	k := edgeKey{from, to, typ}
	if g.adj[k] {
		return
	}
	g.adj[k] = true
	e := Edge{From: from, To: to, Type: typ}
	g.Edges = append(g.Edges, e)
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.idx.Store(nil)
}

// HasEdge reports whether the typed edge exists.
func (g *Graph) HasEdge(from, to int, typ EdgeType) bool {
	return g.adj[edgeKey{from, to, typ}]
}

// Out returns the outgoing edges of node id.
func (g *Graph) Out(id int) []Edge { return g.out[id] }

// In returns the incoming edges of node id.
func (g *Graph) In(id int) []Edge { return g.in[id] }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// NodesOfType returns the IDs of all nodes with the given type, in order.
func (g *Graph) NodesOfType(t NodeType) []int {
	var ids []int
	for _, n := range g.Nodes {
		if n.Type == t {
			ids = append(ids, n.ID)
		}
	}
	return ids
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
