package analysis

import (
	"sort"
	"strings"

	"semfeed/internal/pdg"
)

// This file is the shared fact-computation layer: a control-flow graph
// recovered from the EPDG's Ctrl edges and node ordering, immediate
// dominators over that CFG, and a reaching-definitions solution over the
// full CFG (back edges included — unlike the EPDG's own Data edges, which
// follow the paper's one-iteration linearization). Facts are computed once
// per graph and memoized on the Pass, so every analyzer shares them.
//
// Reconstruction uses three properties of the graphs internal/pdg builds:
// node IDs are assigned in program order, each node's innermost controlling
// condition is its Graph.Parent, and Cond nodes carry their construct kind
// (if / loop / for-each / switch) plus an else-arm marker on their children.

// CFG is the control-flow graph of one method's EPDG. Entry and Exit are
// virtual nodes with IDs len(Nodes) and len(Nodes)+1.
type CFG struct {
	Graph       *pdg.Graph
	Entry, Exit int
	// FallOff lists the nodes from which control falls off the end of the
	// method (normal completion into Exit that is not a Return/Throw).
	FallOff []int

	succ, pred [][]int
}

// Succ returns the CFG successors of id.
func (c *CFG) Succ(id int) []int { return c.succ[id] }

// Pred returns the CFG predecessors of id.
func (c *CFG) Pred(id int) []int { return c.pred[id] }

// Size returns the number of CFG nodes including Entry and Exit.
func (c *CFG) Size() int { return len(c.succ) }

// Reachable computes which CFG nodes are reachable from Entry.
func (c *CFG) Reachable() []bool {
	seen := make([]bool, c.Size())
	stack := []int{c.Entry}
	seen[c.Entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// cfgBuilder assembles the CFG from the control tree.
type cfgBuilder struct {
	g        *pdg.Graph
	cfg      *CFG
	children map[int][]int // control tree, children ordered by ID
	ctx      []flowCtx     // enclosing loop/switch stack
	edgeSeen map[[2]int]bool
}

// flowCtx is one enclosing breakable construct.
type flowCtx struct {
	head   int  // Cond node ID
	isLoop bool // loops take continue; both take break
	breaks []int
}

// BuildCFG recovers the control-flow graph of g. The reconstruction is
// conservative where the EPDG underdetermines flow: switch case boundaries
// are approximated (a statement after a break re-enters from the tag; the
// tag is only an exit when the switch has no default case), a do-while
// condition gets no back edge, labeled breaks are treated as unlabeled
// breaks of the innermost construct, and conditions are not evaluated (both
// arms are always considered possible), except that a literal-true loop
// condition ("while (true)", "for (;;)") has no normal exit.
func BuildCFG(g *pdg.Graph) *CFG {
	n := len(g.Nodes)
	c := &CFG{
		Graph: g,
		Entry: n,
		Exit:  n + 1,
		succ:  make([][]int, n+2),
		pred:  make([][]int, n+2),
	}
	b := &cfgBuilder{g: g, cfg: c, children: map[int][]int{}, edgeSeen: map[[2]int]bool{}}

	// Control tree: each node hangs off its innermost controlling condition.
	for _, node := range g.Nodes {
		parent := g.Parent(node.ID)
		b.children[parent] = append(b.children[parent], node.ID)
	}

	exits := b.seq(b.children[-1], []int{c.Entry})
	for _, e := range exits {
		b.edge(e, c.Exit)
		if e != c.Entry {
			c.FallOff = append(c.FallOff, e)
		}
	}
	if len(g.Nodes) == 0 {
		b.edge(c.Entry, c.Exit)
	}
	return c
}

func (b *cfgBuilder) edge(from, to int) {
	k := [2]int{from, to}
	if b.edgeSeen[k] {
		return
	}
	b.edgeSeen[k] = true
	b.cfg.succ[from] = append(b.cfg.succ[from], to)
	b.cfg.pred[to] = append(b.cfg.pred[to], from)
}

// seq wires a statement list: every pending exit flows into the next
// statement's entry, and the final pending set is the list's exits. A
// statement after a Return/Break has no incoming edge — it is genuinely
// control-unreachable — but its internal structure is still wired.
func (b *cfgBuilder) seq(list, pending []int) []int {
	for _, id := range list {
		for _, p := range pending {
			b.edge(p, id)
		}
		pending = b.stmt(id)
	}
	return pending
}

// stmt wires one statement (and its control subtree) and returns the nodes
// from which control continues to the next statement.
func (b *cfgBuilder) stmt(id int) []int {
	n := b.g.Node(id)
	switch n.Type {
	case pdg.Return:
		// return and throw both terminate the method.
		b.edge(id, b.cfg.Exit)
		return nil

	case pdg.Break:
		if strings.HasPrefix(n.Content, "continue") {
			for i := len(b.ctx) - 1; i >= 0; i-- {
				if b.ctx[i].isLoop {
					b.edge(id, b.ctx[i].head)
					return nil
				}
			}
			return []int{id} // stray continue: fall through
		}
		if len(b.ctx) > 0 {
			// Breaks leave the innermost loop or switch. A labeled break
			// ("break outer;") is approximated the same way — the EPDG does
			// not record labels, so like do-while this is a known
			// simplification (see BuildCFG's doc comment).
			top := &b.ctx[len(b.ctx)-1]
			top.breaks = append(top.breaks, id)
			return nil
		}
		return []int{id} // stray break: fall through

	case pdg.Cond:
		return b.cond(id, n)
	}
	return []int{id}
}

// cond wires a Cond node's arms by kind.
func (b *cfgBuilder) cond(id int, n *pdg.Node) []int {
	kids := b.children[id]
	switch n.Kind {
	case pdg.CondLoop, pdg.CondForEach:
		if len(kids) == 0 {
			// Empty loop body, or a do-while condition (whose body precedes
			// it at the same level): plain fall-through node.
			return []int{id}
		}
		b.ctx = append(b.ctx, flowCtx{head: id, isLoop: true})
		bodyExits := b.seq(kids, []int{id})
		for _, e := range bodyExits {
			b.edge(e, id) // back edge
		}
		top := b.ctx[len(b.ctx)-1]
		b.ctx = b.ctx[:len(b.ctx)-1]
		exits := top.breaks
		if n.Kind == pdg.CondForEach || n.Content != "true" {
			exits = append(exits, id)
		}
		return exits

	case pdg.CondSwitch:
		b.ctx = append(b.ctx, flowCtx{head: id, isLoop: false})
		pending := []int{id}
		for _, kid := range kids {
			if len(pending) == 0 {
				// The previous case ended in break/return, so this statement
				// starts a new case, entered from the tag dispatch.
				pending = []int{id}
			}
			for _, p := range pending {
				b.edge(p, kid)
			}
			pending = b.stmt(kid)
		}
		top := b.ctx[len(b.ctx)-1]
		b.ctx = b.ctx[:len(b.ctx)-1]
		exits := append(pending, top.breaks...)
		if !n.HasDefault {
			// Without a default case the dispatch may match nothing, so the
			// tag itself exits too.
			exits = append(exits, id)
		}
		return exits

	default: // CondIf
		var thenKids, elseKids []int
		for _, kid := range kids {
			if b.g.Node(kid).Else {
				elseKids = append(elseKids, kid)
			} else {
				thenKids = append(thenKids, kid)
			}
		}
		var exits []int
		if len(thenKids) > 0 {
			exits = append(exits, b.seq(thenKids, []int{id})...)
		} else {
			exits = append(exits, id)
		}
		if len(elseKids) > 0 {
			exits = append(exits, b.seq(elseKids, []int{id})...)
		} else if len(thenKids) > 0 {
			// No else arm: the false path falls through from the condition.
			exits = append(exits, id)
		}
		return exits
	}
}

// ---------------------------------------------------------------------------
// Dominators

// Idoms computes the immediate-dominator array of the CFG (Cooper, Harvey &
// Kennedy's iterative algorithm over reverse postorder). idom[Entry] ==
// Entry; nodes unreachable from Entry have idom -1.
func Idoms(c *CFG) []int {
	size := c.Size()
	post := make([]int, 0, size)
	state := make([]int, size) // 0 unvisited, 1 on stack, 2 done
	var stack [][2]int
	stack = append(stack, [2]int{c.Entry, 0})
	state[c.Entry] = 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		node, i := top[0], top[1]
		if i < len(c.succ[node]) {
			top[1]++
			s := c.succ[node][i]
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, [2]int{s, 0})
			}
			continue
		}
		state[node] = 2
		post = append(post, node)
		stack = stack[:len(stack)-1]
	}
	postIdx := make([]int, size)
	for i := range postIdx {
		postIdx[i] = -1
	}
	for i, n := range post {
		postIdx[n] = i
	}

	idom := make([]int, size)
	for i := range idom {
		idom[i] = -1
	}
	idom[c.Entry] = c.Entry
	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(post) - 1; i >= 0; i-- { // reverse postorder
			n := post[i]
			if n == c.Entry {
				continue
			}
			newIdom := -1
			for _, p := range c.pred[n] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// ---------------------------------------------------------------------------
// Reaching definitions

// ReachingDefs is the all-paths reaching-definitions solution over the CFG:
// for every node and variable, which definitions may still hold when control
// arrives. Weak definitions (array/field element writes) do not kill.
//
// Definition sites — (node, variable) pairs — are indexed densely and the
// per-node in-sets are bit vectors over that index, so the fixpoint iterates
// with word-wide unions instead of per-variable map merges. Method bodies
// rarely exceed a few dozen definition sites, so the sets are one or two
// words and the whole solution stays allocation-light.
type ReachingDefs struct {
	sites []defSite // dense definition-site index
	words int       // bitset width in uint64 words
	in    []uint64  // size × words, row-major
}

type defSite struct {
	node int
	v    string
}

// ComputeReachingDefs solves the classic gen/kill dataflow equations over
// the CFG with a change-driven iteration (the lattice is finite and the
// transfer functions monotone, so this terminates).
func ComputeReachingDefs(c *CFG) *ReachingDefs {
	g := c.Graph

	// Enumerate the definition sites in program order and group them per
	// variable for the kill sets.
	var sites []defSite
	byVar := map[string][]int{} // variable -> site indices
	for _, n := range g.Nodes {
		for _, v := range n.Defs {
			byVar[v] = append(byVar[v], len(sites))
			sites = append(sites, defSite{node: n.ID, v: v})
		}
	}
	size := c.Size()
	words := (len(sites) + 63) / 64
	r := &ReachingDefs{sites: sites, words: words, in: make([]uint64, size*words)}
	if words == 0 {
		return r
	}

	// gen and kill per node, as bitsets. Weak definitions generate (the
	// written value may reach a use) but do not kill (the prior whole-value
	// definition may survive the element write).
	gen := make([]uint64, size*words)
	kill := make([]uint64, size*words)
	for i, s := range sites {
		gen[s.node*words+i/64] |= 1 << (i % 64)
		n := g.Node(s.node)
		if n.WeakDef {
			continue
		}
		for _, j := range byVar[s.v] {
			if j != i {
				kill[s.node*words+j/64] |= 1 << (j % 64)
			}
		}
	}

	// Iterate in approximate program order (IDs are program order; Entry
	// first) until stable.
	order := make([]int, 0, size)
	order = append(order, c.Entry)
	for _, n := range g.Nodes {
		order = append(order, n.ID)
	}
	order = append(order, c.Exit)

	out := make([]uint64, size*words)
	nin := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for _, id := range order {
			// in[id] = union of out[p]; out[id] = gen(id) ∪ (in[id] − kill(id)).
			row := id * words
			for w := 0; w < words; w++ {
				nin[w] = 0
			}
			for _, p := range c.pred[id] {
				prow := p * words
				for w := 0; w < words; w++ {
					nin[w] |= out[prow+w]
				}
			}
			for w := 0; w < words; w++ {
				r.in[row+w] = nin[w]
				o := (nin[w] &^ kill[row+w]) | gen[row+w]
				if o != out[row+w] {
					out[row+w] = o
					changed = true
				}
			}
		}
	}
	return r
}

// In returns the definitions of v that reach node id, sorted by node ID.
func (r *ReachingDefs) In(id int, v string) []int {
	var out []int
	row := id * r.words
	for i, s := range r.sites {
		if s.v == v && r.in[row+i/64]&(1<<(i%64)) != 0 {
			out = append(out, s.node)
		}
	}
	sort.Ints(out)
	return out
}
