// Package pattern models instructor patterns (Definitions 4-5 of the paper):
// small subgraph queries whose nodes carry incomplete Java expression
// templates (exact r and approximate r̂) and natural-language feedback, and
// whose edges mirror EPDG edges.
package pattern

import (
	"fmt"
	"strings"

	"semfeed/internal/expr"
	"semfeed/internal/pdg"
)

// Untyped is the extra pattern node type of Definition 4: it matches graph
// nodes of every type.
const Untyped = "Untyped"

// NodeFeedback holds the per-node feedback templates f_c and f_i. Templates
// may reference pattern variables as {x}; occurrences are replaced with the
// matched submission variable names when feedback is rendered.
type NodeFeedback struct {
	Correct   string `json:"correct,omitempty"`
	Incorrect string `json:"incorrect,omitempty"`
}

// Node is a pattern node u = (t_u, r, r̂, f_c, f_i). Exact and Approx each
// hold one or more template alternatives (see internal/expr for the
// fragment / "re:" syntax).
type Node struct {
	ID       string       `json:"id"`
	Type     string       `json:"type"` // Assign, Break, Call, Cond, Decl, Return or Untyped
	Exact    []string     `json:"exact"`
	Approx   []string     `json:"approx,omitempty"`
	Feedback NodeFeedback `json:"feedback,omitempty"`
}

// Edge is a pattern edge between two pattern nodes.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Type string `json:"type"` // Ctrl or Data
}

// Pattern is p = (U, F, f_p, f_m) plus a name, a description and the set of
// declared pattern variables.
type Pattern struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Vars        []string `json:"vars"`
	Nodes       []Node   `json:"nodes"`
	Edges       []Edge   `json:"edges,omitempty"`
	Present     string   `json:"present,omitempty"` // f_p
	Missing     string   `json:"missing,omitempty"` // f_m
}

// CompiledNode is a pattern node with compiled templates and a resolved type.
type CompiledNode struct {
	Node
	TypeResolved pdg.NodeType // meaningful only when !AnyType
	AnyType      bool
	ExactT       *expr.Template
	ApproxT      *expr.Template
	Index        int // position within the compiled pattern
}

// Crucial reports whether the node has no approximate form and no incorrect
// feedback: such nodes must match exactly or the pattern is unrecognizable
// (the paper's u4 discussion).
func (n *CompiledNode) Crucial() bool {
	return n.ApproxT.Empty() && n.Feedback.Incorrect == ""
}

// Vars returns the pattern variables mentioned by the node's templates:
// r's, since Compile checks that r̂'s are among them (Definition 4). The
// slice is shared — callers must not modify it.
func (n *CompiledNode) Vars() []string { return n.ExactT.Vars() }

// CompiledEdge is an edge with node indexes and a resolved type.
type CompiledEdge struct {
	From, To int
	Type     pdg.EdgeType
}

// Compiled is a validated, matchable pattern.
type Compiled struct {
	Source *Pattern
	Nodes  []*CompiledNode
	Edges  []CompiledEdge

	out map[int][]CompiledEdge
	in  map[int][]CompiledEdge
	idx map[string]int
}

// Compile validates the pattern and compiles its templates.
func Compile(p *Pattern) (*Compiled, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("pattern: missing name")
	}
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("pattern %s: no nodes", p.Name)
	}
	c := &Compiled{
		Source: p,
		out:    map[int][]CompiledEdge{},
		in:     map[int][]CompiledEdge{},
		idx:    map[string]int{},
	}
	for i, n := range p.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("pattern %s: node %d has no id", p.Name, i)
		}
		if _, dup := c.idx[n.ID]; dup {
			return nil, fmt.Errorf("pattern %s: duplicate node id %s", p.Name, n.ID)
		}
		cn := &CompiledNode{Node: n, Index: i}
		if n.Type == Untyped {
			cn.AnyType = true
		} else {
			t, err := pdg.ParseNodeType(n.Type)
			if err != nil {
				return nil, fmt.Errorf("pattern %s node %s: %v", p.Name, n.ID, err)
			}
			cn.TypeResolved = t
		}
		var err error
		cn.ExactT, err = expr.Compile(n.Exact, p.Vars)
		if err != nil {
			return nil, fmt.Errorf("pattern %s node %s: %v", p.Name, n.ID, err)
		}
		cn.ApproxT, err = expr.Compile(n.Approx, p.Vars)
		if err != nil {
			return nil, fmt.Errorf("pattern %s node %s: %v", p.Name, n.ID, err)
		}
		if cn.ExactT.Empty() {
			return nil, fmt.Errorf("pattern %s node %s: empty exact template", p.Name, n.ID)
		}
		// Definition 4 requires Vars(r̂) ⊆ Vars(r).
		exactVars := map[string]bool{}
		for _, v := range cn.ExactT.Vars() {
			exactVars[v] = true
		}
		for _, v := range cn.ApproxT.Vars() {
			if !exactVars[v] {
				return nil, fmt.Errorf("pattern %s node %s: approx variable %s not in exact template", p.Name, n.ID, v)
			}
		}
		c.idx[n.ID] = i
		c.Nodes = append(c.Nodes, cn)
	}
	for _, e := range p.Edges {
		from, ok := c.idx[e.From]
		if !ok {
			return nil, fmt.Errorf("pattern %s: edge from unknown node %s", p.Name, e.From)
		}
		to, ok := c.idx[e.To]
		if !ok {
			return nil, fmt.Errorf("pattern %s: edge to unknown node %s", p.Name, e.To)
		}
		t, err := pdg.ParseEdgeType(e.Type)
		if err != nil {
			return nil, fmt.Errorf("pattern %s: %v", p.Name, err)
		}
		ce := CompiledEdge{From: from, To: to, Type: t}
		c.Edges = append(c.Edges, ce)
		c.out[from] = append(c.out[from], ce)
		c.in[to] = append(c.in[to], ce)
	}
	return c, nil
}

// MustCompile is Compile that panics on error; for the built-in knowledge base.
func MustCompile(p *Pattern) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the pattern name.
func (c *Compiled) Name() string { return c.Source.Name }

// NodeIndex resolves a pattern node ID to its index, or -1.
func (c *Compiled) NodeIndex(id string) int {
	if i, ok := c.idx[id]; ok {
		return i
	}
	return -1
}

// Out returns the edges leaving pattern node i.
func (c *Compiled) Out(i int) []CompiledEdge { return c.out[i] }

// In returns the edges entering pattern node i.
func (c *Compiled) In(i int) []CompiledEdge { return c.in[i] }

// RenderFeedback instantiates a feedback template with the variable mapping
// γ: occurrences of {x} for pattern variable x become the mapped submission
// variable; unmapped references are left as the variable name itself.
func RenderFeedback(tmpl string, gamma map[string]string) string {
	if tmpl == "" {
		return ""
	}
	var sb strings.Builder
	for i := 0; i < len(tmpl); {
		j := strings.IndexByte(tmpl[i:], '{')
		if j < 0 {
			sb.WriteString(tmpl[i:])
			break
		}
		sb.WriteString(tmpl[i : i+j])
		k := strings.IndexByte(tmpl[i+j:], '}')
		if k < 0 {
			sb.WriteString(tmpl[i+j:])
			break
		}
		name := tmpl[i+j+1 : i+j+k]
		if mapped, ok := gamma[name]; ok {
			sb.WriteString(mapped)
		} else {
			sb.WriteString(name)
		}
		i += j + k + 1
	}
	return sb.String()
}
