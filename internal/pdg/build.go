package pdg

import (
	"semfeed/internal/java/ast"
	"semfeed/internal/java/pretty"
	"semfeed/internal/java/token"
)

// BuildOpts select between the EPDG construction conventions the paper
// discusses in Section III-A. The zero value is the paper's choice.
type BuildOpts struct {
	// TransitiveCtrl keeps transitive control edges (a node depends on every
	// enclosing condition) instead of removing them. The paper removes them
	// because they overload the graph and hinder matching; the ablation
	// bench quantifies that.
	TransitiveCtrl bool
	// ConservativeData additionally considers "condition not fulfilled"
	// paths when computing Data edges (the Baah et al. convention): an
	// if-without-else merges the branch-taken and branch-skipped definition
	// sets, and a loop merges pre-loop definitions into its exit set.
	ConservativeData bool
	// NormalizeElse implements the paper's Section VII plan for else
	// branches: the else arm is controlled by a synthesized Cond node whose
	// content is the structural negation of the if condition (i % 2 == 0
	// becomes i % 2 != 0), so parity-style patterns match else-driven
	// solutions.
	NormalizeElse bool
}

// Build constructs the extended program dependence graph of a method,
// following Definitions 1-3 of the paper (ExtractEPDG in Algorithm 2).
func Build(m *ast.Method) *Graph {
	return BuildWith(m, BuildOpts{})
}

// BuildWith constructs the EPDG with explicit construction options.
func BuildWith(m *ast.Method, opts BuildOpts) *Graph {
	b := &builder{opts: opts, elseArm: -1}
	defs := defEnv{}
	for _, p := range m.Params {
		n := b.addNode(&Node{
			Type:    Decl,
			Content: p.Type.String() + " " + p.Name,
			Alts:    []string{p.Name},
			Vars:    []string{p.Name},
			Defs:    []string{p.Name},
			Line:    p.P.Line,
		}, -1, defs)
		defs.kill(p.Name, n.ID)
	}
	if m.Body != nil {
		b.stmts(m.Body.Stmts, -1, defs)
	}
	return NewGraph(m.Name, b.nodes, b.edges)
}

// BuildAll constructs the EPDG of every method in the unit, keyed by method
// name. When names collide (overloads), the first method wins; overloads do
// not occur in the assignment corpus.
func BuildAll(unit *ast.CompilationUnit) map[string]*Graph {
	return BuildAllWith(unit, BuildOpts{})
}

// BuildAllWith is BuildAll with explicit construction options.
func BuildAllWith(unit *ast.CompilationUnit, opts BuildOpts) map[string]*Graph {
	out := make(map[string]*Graph)
	for _, m := range unit.AllMethods() {
		if _, ok := out[m.Name]; !ok && m.Body != nil {
			out[m.Name] = BuildWith(m, opts)
		}
	}
	return out
}

// defEnv maps a variable to the node IDs of its reaching definitions under
// the one-iteration linearization.
type defEnv map[string][]int

// clone shares each definition list with d, clipped to its length, so that
// weak's append on either environment copies the list instead of writing
// into the other's; kill installs a fresh list.
func (d defEnv) clone() defEnv {
	out := make(defEnv, len(d))
	for k, v := range d {
		out[k] = v[:len(v):len(v)]
	}
	return out
}

// kill replaces every reaching definition of name with the single def id.
func (d defEnv) kill(name string, id int) { d[name] = []int{id} }

// weak adds a non-killing definition (array element writes).
func (d defEnv) weak(name string, id int) {
	for _, e := range d[name] {
		if e == id {
			return
		}
	}
	d[name] = append(d[name], id)
}

// merge unions reaching definitions from several branch environments.
func merge(envs ...defEnv) defEnv {
	out := defEnv{}
	for _, e := range envs {
		for k, ids := range e {
			for _, id := range ids {
				out.weak(k, id)
			}
		}
	}
	return out
}

type builder struct {
	opts  BuildOpts
	nodes []*Node
	edges []Edge
	// parents holds each node's innermost controlling Cond (-1 for none),
	// so the TransitiveCtrl ablation can walk the chain outward.
	parents []int
	// elseArm is the Cond node whose else branch is currently being built
	// (-1 outside any else branch): nodes created with that parent are the
	// else arm's direct children and get Node.Else set.
	elseArm int
}

// addNode appends a node with the next ID, its Ctrl edge from the innermost
// controlling condition (parent), and its Data edges from the reaching
// definitions of the variables it uses. Uses are distinct and each
// definition site appears once per variable, so no edge is added twice; the
// Ctrl edges come first, in the (To, Type) order NewGraph requires.
func (b *builder) addNode(n *Node, parent int, defs defEnv) *Node {
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	b.parents = append(b.parents, parent)
	if parent >= 0 {
		if parent == b.elseArm {
			n.Else = true
		}
		b.edges = append(b.edges, Edge{From: parent, To: n.ID, Type: Ctrl})
		if b.opts.TransitiveCtrl {
			for p := b.parents[parent]; p >= 0; p = b.parents[p] {
				b.edges = append(b.edges, Edge{From: p, To: n.ID, Type: Ctrl})
			}
		}
	}
	for _, u := range n.Uses {
		for _, def := range defs[u] {
			if def != n.ID {
				b.edges = append(b.edges, Edge{From: def, To: n.ID, Type: Data})
			}
		}
	}
	return n
}

// stmts processes a statement list under the given controlling parent,
// threading the reaching-definition environment through and returning it.
func (b *builder) stmts(list []ast.Stmt, parent int, defs defEnv) defEnv {
	for _, s := range list {
		defs = b.stmt(s, parent, defs)
	}
	return defs
}

func (b *builder) stmt(s ast.Stmt, parent int, defs defEnv) defEnv {
	switch x := s.(type) {
	case *ast.Block:
		return b.stmts(x.Stmts, parent, defs)

	case *ast.Empty:
		return defs

	case *ast.LocalVarDecl:
		for _, d := range x.Decls {
			defs = b.declarator(x.Type, d, parent, defs)
		}
		return defs

	case *ast.ExprStmt:
		return b.exprStmt(x.X, x.P.Line, parent, defs)

	case *ast.If:
		cond := b.condNode(x.Cond, x.P.Line, parent, CondIf, defs)
		thenOut := b.stmt(x.Then, cond.ID, defs.clone())
		if x.Else == nil {
			if b.opts.ConservativeData {
				return merge(thenOut, defs)
			}
			// Condition assumed taken: the then-branch definitions flow on.
			return thenOut
		}
		elseParent := cond.ID
		if b.opts.NormalizeElse {
			neg := b.condNode(negate(x.Cond), x.P.Line, parent, CondIf, defs)
			elseParent = neg.ID
		}
		prevElse := b.elseArm
		if elseParent == cond.ID {
			// Direct children of the shared Cond built from here on are the
			// else arm. Under NormalizeElse they hang off the synthesized
			// negated condition instead, which is its own (then) branch.
			b.elseArm = cond.ID
		}
		elseOut := b.stmt(x.Else, elseParent, defs.clone())
		b.elseArm = prevElse
		return merge(thenOut, elseOut)

	case *ast.While:
		cond := b.condNode(x.Cond, x.P.Line, parent, CondLoop, defs)
		out := b.stmt(x.Body, cond.ID, defs.clone())
		if b.opts.ConservativeData {
			return merge(out, defs)
		}
		return out

	case *ast.DoWhile:
		// The body executes at least once, so it is not control-dependent on
		// the condition; the condition reads the post-body definitions.
		out := b.stmt(x.Body, parent, defs.clone())
		b.condNode(x.Cond, x.P.Line, parent, CondLoop, out)
		return out

	case *ast.For:
		for _, init := range x.Init {
			defs = b.stmt(init, parent, defs)
		}
		var cond *Node
		if x.Cond != nil {
			cond = b.condNode(x.Cond, x.P.Line, parent, CondLoop, defs)
		} else {
			cond = b.addNode(&Node{Type: Cond, Content: "true", Line: x.P.Line, Kind: CondLoop}, parent, defs)
		}
		out := b.stmt(x.Body, cond.ID, defs.clone())
		for _, u := range x.Update {
			out = b.exprStmt(u, x.P.Line, cond.ID, out)
		}
		if b.opts.ConservativeData {
			return merge(out, defs)
		}
		return out

	case *ast.ForEach:
		content := x.ElemType.String() + " " + x.Name + " : " + pretty.Expr(x.Iterable)
		uses := ast.Idents(x.Iterable)
		n := b.addNode(&Node{
			Type:     Cond,
			Content:  content,
			Alts:     []string{x.Name + " : " + pretty.Expr(x.Iterable)},
			Vars:     dedup(append([]string{x.Name}, uses...)),
			Defs:     []string{x.Name},
			Uses:     uses,
			Line:     x.P.Line,
			Kind:     CondForEach,
			Declares: true,
		}, parent, defs)
		out := defs.clone()
		out.kill(x.Name, n.ID)
		return b.stmt(x.Body, n.ID, out)

	case *ast.Switch:
		cond := b.condNode(x.Tag, x.P.Line, parent, CondSwitch, defs)
		hasDefault := false
		envs := []defEnv{}
		for _, c := range x.Cases {
			if c.Exprs == nil {
				hasDefault = true
			}
			envs = append(envs, b.stmts(c.Stmts, cond.ID, defs.clone()))
		}
		cond.HasDefault = hasDefault
		if !hasDefault {
			envs = append(envs, defs)
		}
		return merge(envs...)

	case *ast.Break:
		b.addNode(&Node{Type: Break, Content: pretty.Stmt(x), Line: x.P.Line}, parent, defs)
		return defs

	case *ast.Continue:
		// The node taxonomy of Definition 1 has no Continue; see DESIGN.md.
		b.addNode(&Node{Type: Break, Content: pretty.Stmt(x), Line: x.P.Line}, parent, defs)
		return defs

	case *ast.Return:
		var uses []string
		if x.X != nil {
			uses = ast.Idents(x.X)
		}
		b.addNode(&Node{
			Type:    Return,
			Content: pretty.Stmt(x),
			Vars:    uses,
			Uses:    uses,
			Line:    x.P.Line,
		}, parent, defs)
		return defs

	case *ast.Throw:
		uses := ast.Idents(x.X)
		b.addNode(&Node{
			Type:    Return,
			Content: pretty.Stmt(x),
			Vars:    uses,
			Uses:    uses,
			Line:    x.P.Line,
		}, parent, defs)
		return defs
	}
	return defs
}

// declarator emits the Assign node of one declarator in a declaration.
func (b *builder) declarator(t ast.Type, d ast.Declarator, parent int, defs defEnv) defEnv {
	var uses []string
	if d.Init != nil {
		uses = ast.Idents(d.Init)
	}
	alts := []string{}
	if d.Init != nil {
		alts = append(alts, d.Name+" = "+pretty.Expr(d.Init))
	} else {
		alts = append(alts, d.Name)
	}
	n := b.addNode(&Node{
		Type:     Assign,
		Content:  pretty.Declarator(t, d),
		Alts:     alts,
		Vars:     dedup(append([]string{d.Name}, uses...)),
		Defs:     []string{d.Name},
		Uses:     uses,
		Line:     d.P.Line,
		Uninit:   d.Init == nil,
		Declares: true,
	}, parent, defs)
	defs.kill(d.Name, n.ID)
	return defs
}

// exprStmt emits the node of an expression statement and updates defs.
func (b *builder) exprStmt(e ast.Expr, line int, parent int, defs defEnv) defEnv {
	switch x := e.(type) {
	case *ast.Assign:
		content := pretty.Expr(x)
		uses := ast.Idents(x.Value)
		var defName string
		weak := false
		switch tgt := unparen(x.Target).(type) {
		case *ast.Ident:
			defName = tgt.Name
			if x.Op != token.ASSIGN {
				uses = dedup(append(uses, tgt.Name))
			}
		case *ast.Index:
			// a[i] = e reads a and i and weakly defines a.
			uses = dedup(append(uses, ast.Idents(tgt)...))
			if root := rootIdent(tgt.X); root != "" {
				defName = root
				weak = true
			}
		case *ast.FieldAccess:
			uses = dedup(append(uses, ast.Idents(tgt)...))
			if root := rootIdent(tgt.X); root != "" {
				defName = root
				weak = true
			}
		default:
			uses = dedup(append(uses, ast.Idents(x.Target)...))
		}
		n := b.addNode(&Node{
			Type:    Assign,
			Content: content,
			Vars:    ast.Idents(x),
			Defs:    defList(defName),
			Uses:    uses,
			Line:    line,
			WeakDef: weak,
		}, parent, defs)
		switch {
		case defName == "":
		case weak:
			defs.weak(defName, n.ID)
		default:
			defs.kill(defName, n.ID)
		}
		return defs

	case *ast.Unary:
		if x.Op == token.INC || x.Op == token.DEC {
			name := rootIdent(x.X)
			uses := ast.Idents(x.X)
			_, isIdent := unparen(x.X).(*ast.Ident)
			n := b.addNode(&Node{
				Type:    Assign,
				Content: pretty.Expr(x),
				Vars:    uses,
				Defs:    defList(name),
				Uses:    uses,
				Line:    line,
				WeakDef: name != "" && !isIdent,
			}, parent, defs)
			if name != "" {
				if isIdent {
					defs.kill(name, n.ID)
				} else {
					defs.weak(name, n.ID)
				}
			}
			return defs
		}

	case *ast.Call:
		uses := ast.Idents(x)
		b.addNode(&Node{
			Type:    Call,
			Content: pretty.Expr(x),
			Vars:    uses,
			Uses:    uses,
			Line:    line,
		}, parent, defs)
		return defs

	case *ast.Paren:
		return b.exprStmt(x.X, line, parent, defs)
	}

	// Any other expression used as a statement (rare, often a typo): keep it
	// visible to patterns as a Call node.
	uses := ast.Idents(e)
	b.addNode(&Node{
		Type:    Call,
		Content: pretty.Expr(e),
		Vars:    uses,
		Uses:    uses,
		Line:    line,
	}, parent, defs)
	return defs
}

// condNode emits a Cond node for a controlling expression.
func (b *builder) condNode(cond ast.Expr, line int, parent int, kind CondKind, defs defEnv) *Node {
	uses := ast.Idents(cond)
	return b.addNode(&Node{
		Type:    Cond,
		Content: pretty.Expr(cond),
		Vars:    uses,
		Uses:    uses,
		Line:    line,
		Kind:    kind,
	}, parent, defs)
}

// negate structurally negates a boolean expression: comparisons flip their
// operator, a top-level ! unwraps, everything else is wrapped in !(...).
func negate(e ast.Expr) ast.Expr {
	switch x := unparen(e).(type) {
	case *ast.Binary:
		flip := map[token.Kind]token.Kind{
			token.EQL: token.NEQ, token.NEQ: token.EQL,
			token.LSS: token.GEQ, token.GEQ: token.LSS,
			token.LEQ: token.GTR, token.GTR: token.LEQ,
		}
		if op, ok := flip[x.Op]; ok {
			return &ast.Binary{Op: op, L: x.L, R: x.R, P: x.P}
		}
	case *ast.Unary:
		if x.Op == token.NOT {
			return x.X
		}
	case *ast.Literal:
		if x.Kind == token.TRUE {
			return &ast.Literal{Kind: token.FALSE, Text: "false", P: x.P}
		}
		if x.Kind == token.FALSE {
			return &ast.Literal{Kind: token.TRUE, Text: "true", P: x.P}
		}
	}
	return &ast.Unary{Op: token.NOT, X: &ast.Paren{X: e, P: e.Pos()}, P: e.Pos()}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}

// rootIdent returns the base variable of an lvalue chain (a[i][j] -> a).
func rootIdent(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.Index:
		return rootIdent(x.X)
	case *ast.FieldAccess:
		return rootIdent(x.X)
	}
	return ""
}

func defList(name string) []string {
	if name == "" {
		return nil
	}
	return []string{name}
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
