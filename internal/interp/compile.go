package interp

import (
	"sync"

	"semfeed/internal/java/ast"
)

// This file lowers statements to cnode graphs. The compiler walks the AST
// once, in source order, building per-node exec closures and resolving
// variable references to frame-slot candidate chains against a compile-time
// scope stack that mirrors the tree-walker's runtime scope maps.
//
// Forward control-flow edges (loop exits, if joins, switch fallthrough,
// break) are collected as dangling jumps and backpatched once the successor
// node exists; a jump left dangling at the end of a method body simply ends
// the dispatch loop, which is exactly a return without a value.
//
// Step parity with the tree-walker is load-bearing (the differential fuzzer
// asserts it): every statement node charges one step at its source line on
// entry, every expression closure charges one step for its own AST node, and
// for-update expressions charge an extra step at the for statement's line —
// the same positions machine.step is called from.

// jump is a dangling successor edge awaiting backpatch: the tnext (or fnext,
// when alt) pointer of n.
type jump struct {
	n   *cnode
	alt bool
}

// link patches every dangling edge to point at the target node.
func link(js []jump, to *cnode) {
	for _, j := range js {
		if j.alt {
			j.n.fnext = to
		} else {
			j.n.tnext = to
		}
	}
}

// scopeDef is one lexical scope: name→slot bindings plus the slots declared
// directly in it, which the scope's entry node resets to undefined (the slot
// analogue of pushing a fresh scope map).
type scopeDef struct {
	names map[string]int
	owned []int
}

// loopCtx collects the break/continue edges of one enclosing breakable
// construct. Switches are breakable but not continuable.
type loopCtx struct {
	isLoop bool
	breaks []jump
	conts  []jump
}

// compiler lowers one method body (or one field initializer).
type compiler struct {
	p        *Program
	fn       *compiledMethod
	nslots   int
	nwatches int
	scopes   []*scopeDef
	loops    []*loopCtx

	// refs holds the resolution of every identifier compiled inside a
	// while, do or for statement, for the loops' drift classification
	// (drift.go); loopDepth counts the enclosing such statements.
	refs      map[*ast.Ident]varRef
	loopDepth int
}

func (c *compiler) pushScope() *scopeDef {
	sc := &scopeDef{names: map[string]int{}}
	c.scopes = append(c.scopes, sc)
	return sc
}

func (c *compiler) popScope() { c.scopes = c.scopes[:len(c.scopes)-1] }

// declare allocates a slot for a name in the innermost scope.
func (c *compiler) declare(name string) int {
	slot := c.nslots
	c.nslots++
	sc := c.scopes[len(c.scopes)-1]
	sc.names[name] = slot
	sc.owned = append(sc.owned, slot)
	return slot
}

// hidden allocates an anonymous slot (switch tag, for-each iteration state).
// Hidden slots are always written before read, so no scope owns or resets
// them.
func (c *compiler) hidden() int {
	slot := c.nslots
	c.nslots++
	return slot
}

// varRef is a compiled variable reference: local slot candidates from
// innermost to outermost scope, then an optional global slot. At runtime the
// first non-undefined candidate wins, reproducing the tree-walker's scope
// search over maps that only contain executed declarations.
type varRef struct {
	slots  []int
	global int // -1 when no global shares the name
}

func (r varRef) empty() bool { return len(r.slots) == 0 && r.global < 0 }

// read returns the first defined candidate.
func (r varRef) read(v *vm, fr *cframe) (val, bool) {
	for _, s := range r.slots {
		if cv := fr.slots[s]; cv.defined() {
			return cv, true
		}
	}
	if r.global >= 0 {
		if cv := v.globals[r.global]; cv.defined() {
			return cv, true
		}
	}
	return val{}, false
}

// resolve resolves an identifier against the current scopes.
func (c *compiler) resolve(id *ast.Ident) varRef {
	ref := varRef{global: -1}
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i].names[id.Name]; ok {
			ref.slots = append(ref.slots, s)
		}
	}
	if g, ok := c.p.globalIndex[id.Name]; ok {
		ref.global = g
	}
	if c.loopDepth > 0 {
		if c.refs == nil {
			c.refs = refsPool.Get().(map[*ast.Ident]varRef)
		}
		c.refs[id] = ref
	}
	return ref
}

// refsPool recycles the compilers' refs maps, which die with the method's
// compilation.
var refsPool = sync.Pool{New: func() any { return map[*ast.Ident]varRef{} }}

// loopSite is one while, do or for statement: the index of its watch in
// the frame, and what the compiler proved about the slots of its loop,
// set once the loop's code is compiled.
type loopSite struct {
	watch int
	drift loopDrift
}

// newLoop allocates the loop watch of one while, do or for statement;
// endLoop classifies the loop once its code is compiled.
func (c *compiler) newLoop() *loopSite {
	site := &loopSite{watch: c.nwatches}
	c.nwatches++
	c.loopDepth++
	return site
}

// endLoop classifies the loop of site, whose condition, body and update
// run each period and whose first slot declared inside is bodyStart.
func (c *compiler) endLoop(site *loopSite, bodyStart int, cond ast.Expr, body ast.Stmt, update []ast.Expr) {
	c.loopDepth--
	site.drift = c.driftOf(bodyStart, cond, body, update)
}

func (c *compiler) pushLoop(isLoop bool) *loopCtx {
	lc := &loopCtx{isLoop: isLoop}
	c.loops = append(c.loops, lc)
	return lc
}

func (c *compiler) popLoop() *loopCtx {
	lc := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	return lc
}

// breakCtx is the innermost breakable construct, nil at method level (a
// stray break then falls off the method like the tree-walker's stray
// signal).
func (c *compiler) breakCtx() *loopCtx {
	if len(c.loops) == 0 {
		return nil
	}
	return c.loops[len(c.loops)-1]
}

// continueCtx is the innermost loop, skipping switches.
func (c *compiler) continueCtx() *loopCtx {
	for i := len(c.loops) - 1; i >= 0; i-- {
		if c.loops[i].isLoop {
			return c.loops[i]
		}
	}
	return nil
}

// stepNode charges the statement step and falls through.
func (c *compiler) stepNode(line int) *cnode {
	n := &cnode{}
	n.exec = func(v *vm, fr *cframe) (*cnode, error) {
		if err := v.step(line); err != nil {
			return nil, err
		}
		return n.tnext, nil
	}
	return n
}

// errStmt charges the statement step, then fails.
func (c *compiler) errStmt(line int, format string, args ...any) *cnode {
	err := errAt(line, format, args...)
	n := &cnode{}
	n.exec = func(v *vm, fr *cframe) (*cnode, error) {
		if serr := v.step(line); serr != nil {
			return nil, serr
		}
		return nil, err
	}
	return n
}

// loopEntry is the entry node of the loop with watch wi: it charges the
// statement's step, resets the slots sc owns (nil: none) and drops the
// loop's snapshot, so a snapshot is compared only within one entry of the
// loop in one activation.
func (c *compiler) loopEntry(line, wi int, sc *scopeDef) *cnode {
	n := &cnode{}
	n.exec = func(v *vm, fr *cframe) (*cnode, error) {
		if err := v.step(line); err != nil {
			return nil, err
		}
		if sc != nil {
			for _, sl := range sc.owned {
				fr.slots[sl] = undef
			}
		}
		fr.watches[wi].on = false
		return n.tnext, nil
	}
	return n
}

// loopHead is the node every iteration of the loop of site passes first.
// It hands the pass to the loop watch once the run is armed, then
// evaluates the loop condition and branches: tnext when true, fnext when
// false; with no condition (for (;;)) it always takes tnext. The condition
// charges its own steps; the node itself charges none (matching evalBool
// inside an already-stepped statement).
func (c *compiler) loopHead(e ast.Expr, site *loopSite) *cnode {
	n := &cnode{}
	wi := site.watch
	if e == nil {
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if v.steps >= v.watchAt {
				v.watch(&fr.watches[wi], fr, &site.drift)
			}
			return n.tnext, nil
		}
		return n
	}
	ce := c.expr(e)
	line := e.Pos().Line
	n.exec = func(v *vm, fr *cframe) (*cnode, error) {
		if v.steps >= v.watchAt {
			v.watch(&fr.watches[wi], fr, &site.drift)
		}
		cv, err := ce(v, fr)
		if err != nil {
			return nil, err
		}
		b, ok := cv.v.(bool)
		if !ok {
			return nil, errAt(line, "condition is %s, not boolean", valueType(cv.boxed()))
		}
		if b {
			return n.tnext, nil
		}
		return n.fnext, nil
	}
	return n
}

// declPart is one compiled declarator of a local variable declaration.
type declPart struct {
	init     exprFn // nil: zero-initialize
	zero     val
	coerce   bool // scalar declaration: apply coerceVal
	typeName string
	slot     int
	name     string
	line     int // declarator line, for the trace event
}

// stmt lowers one statement, returning its entry node and the dangling exits
// that the caller must patch to whatever executes next.
func (c *compiler) stmt(s ast.Stmt) (*cnode, []jump) {
	line := s.Pos().Line
	switch x := s.(type) {
	case *ast.Block:
		sc := c.pushScope()
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			for _, sl := range sc.owned {
				fr.slots[sl] = undef
			}
			return n.tnext, nil
		}
		outs := []jump{{n, false}}
		for _, st := range x.Stmts {
			e, o := c.stmt(st)
			link(outs, e)
			outs = o
		}
		c.popScope()
		return n, outs

	case *ast.Empty:
		n := c.stepNode(line)
		return n, []jump{{n, false}}

	case *ast.LocalVarDecl:
		parts := make([]declPart, len(x.Decls))
		for i, d := range x.Decls {
			p := &parts[i]
			p.name = d.Name
			p.line = d.P.Line
			p.coerce = x.Type.Dims+d.ExtraDims == 0
			p.typeName = x.Type.Name
			if d.Init != nil {
				// The initializer compiles before the name is declared, so a
				// self-reference resolves outward exactly like the runtime
				// evaluate-then-define order.
				if lit, ok := d.Init.(*ast.ArrayLit); ok {
					p.init = c.arrayLit(lit, x.Type.Name, false)
				} else {
					p.init = c.expr(d.Init)
				}
			} else {
				p.zero = unbox(zeroValue(x.Type.Name, x.Type.Dims+d.ExtraDims))
			}
			p.slot = c.declare(d.Name)
		}
		mname := c.fn.name
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			for i := range parts {
				p := &parts[i]
				cv := p.zero
				if p.init != nil {
					var err error
					cv, err = p.init(v, fr)
					if err != nil {
						return nil, err
					}
					if p.coerce {
						cv = coerceVal(cv, p.typeName)
					}
				}
				fr.slots[p.slot] = cv
				if v.tracer != nil {
					v.tracer.OnAssign(mname, p.line, p.name, cv.boxed())
				}
			}
			return n.tnext, nil
		}
		return n, []jump{{n, false}}

	case *ast.ExprStmt:
		e := c.expr(x.X)
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			if _, err := e(v, fr); err != nil {
				return nil, err
			}
			return n.tnext, nil
		}
		return n, []jump{{n, false}}

	case *ast.If:
		ce := c.expr(x.Cond)
		condLine := x.Cond.Pos().Line
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			cv, err := ce(v, fr)
			if err != nil {
				return nil, err
			}
			b, ok := cv.v.(bool)
			if !ok {
				return nil, errAt(condLine, "condition is %s, not boolean", valueType(cv.boxed()))
			}
			if b {
				return n.tnext, nil
			}
			return n.fnext, nil
		}
		thenE, outs := c.stmt(x.Then)
		n.tnext = thenE
		if x.Else != nil {
			elseE, elseOuts := c.stmt(x.Else)
			n.fnext = elseE
			outs = append(outs, elseOuts...)
		} else {
			outs = append(outs, jump{n, true})
		}
		return n, outs

	case *ast.While:
		site := c.newLoop()
		bodyStart := c.nslots
		entry := c.loopEntry(line, site.watch, nil)
		cond := c.loopHead(x.Cond, site)
		entry.tnext = cond
		c.pushLoop(true)
		bodyE, bodyOuts := c.stmt(x.Body)
		lc := c.popLoop()
		c.endLoop(site, bodyStart, x.Cond, x.Body, nil)
		cond.tnext = bodyE
		link(bodyOuts, cond)
		link(lc.conts, cond)
		outs := append([]jump{{cond, true}}, lc.breaks...)
		return entry, outs

	case *ast.DoWhile:
		site := c.newLoop()
		bodyStart := c.nslots
		entry := c.loopEntry(line, site.watch, nil)
		c.pushLoop(true)
		bodyE, bodyOuts := c.stmt(x.Body)
		lc := c.popLoop()
		cond := c.loopHead(x.Cond, site)
		c.endLoop(site, bodyStart, x.Cond, x.Body, nil)
		entry.tnext = bodyE
		cond.tnext = bodyE
		link(bodyOuts, cond)
		link(lc.conts, cond)
		outs := append([]jump{{cond, true}}, lc.breaks...)
		return entry, outs

	case *ast.For:
		sc := c.pushScope()
		site := c.newLoop()
		entry := c.loopEntry(line, site.watch, sc)
		// Init statements run once; a break/continue inside them (legal for
		// the tree-walker only as propagation out of the For) is compiled
		// outside this loop's context for the same effect.
		cur := []jump{{entry, false}}
		for _, init := range x.Init {
			e, o := c.stmt(init)
			link(cur, e)
			cur = o
		}
		// Init runs once per entry, before the first head pass; slots it
		// declares may drift.
		bodyStart := c.nslots
		head := c.loopHead(x.Cond, site)
		link(cur, head)
		c.pushLoop(true)
		bodyE, bodyOuts := c.stmt(x.Body)
		lc := c.popLoop()
		// Update expressions evaluate in the for scope (the body block's
		// scope is popped), each charging one statement step at the for's
		// line — both quirks shared with the tree-walker.
		var updFirst *cnode
		var updOuts []jump
		for _, u := range x.Update {
			ue := c.expr(u)
			un := &cnode{}
			un.exec = func(v *vm, fr *cframe) (*cnode, error) {
				if err := v.step(line); err != nil {
					return nil, err
				}
				if _, err := ue(v, fr); err != nil {
					return nil, err
				}
				return un.tnext, nil
			}
			if updFirst == nil {
				updFirst = un
			} else {
				link(updOuts, un)
			}
			updOuts = []jump{{un, false}}
		}
		head.tnext = bodyE
		backEdge := head
		if updFirst != nil {
			backEdge = updFirst
			link(updOuts, head)
		}
		link(bodyOuts, backEdge)
		link(lc.conts, backEdge)
		c.endLoop(site, bodyStart, x.Cond, x.Body, x.Update)
		c.popScope()
		outs := lc.breaks
		if x.Cond != nil {
			outs = append(outs, jump{head, true})
		}
		return entry, outs

	case *ast.ForEach:
		// The iterable evaluates in the enclosing scope, before the loop
		// variable exists.
		itE := c.expr(x.Iterable)
		c.pushScope()
		varSlot := c.declare(x.Name)
		arrSlot := c.hidden()
		idxSlot := c.hidden()
		zero := unbox(zeroValue(x.ElemType.Name, x.ElemType.Dims))
		varName := x.Name
		mname := c.fn.name
		entry := &cnode{}
		entry.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			it, err := itE(v, fr)
			if err != nil {
				return nil, err
			}
			arr, err := iterableArray(it.boxed(), line)
			if err != nil {
				return nil, err
			}
			fr.slots[varSlot] = zero // defined, untraced, like f.define
			fr.slots[arrSlot] = val{v: arr}
			fr.slots[idxSlot] = intVal(0)
			return entry.tnext, nil
		}
		iter := &cnode{}
		iter.exec = func(v *vm, fr *cframe) (*cnode, error) {
			arr := fr.slots[arrSlot].v.(*Array)
			i := fr.slots[idxSlot].n
			if i >= int64(len(arr.Elems)) {
				return iter.fnext, nil
			}
			fr.slots[idxSlot] = intVal(i + 1)
			el := arr.Elems[i]
			fr.slots[varSlot] = unbox(el)
			if v.tracer != nil {
				v.tracer.OnAssign(mname, line, varName, el)
			}
			return iter.tnext, nil
		}
		entry.tnext = iter
		c.pushLoop(true)
		bodyE, bodyOuts := c.stmt(x.Body)
		lc := c.popLoop()
		iter.tnext = bodyE
		link(bodyOuts, iter)
		link(lc.conts, iter)
		c.popScope()
		outs := append([]jump{{iter, true}}, lc.breaks...)
		return entry, outs

	case *ast.Switch:
		tagE := c.expr(x.Tag)
		tagSlot := c.hidden()
		entry := &cnode{}
		entry.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			tv, err := tagE(v, fr)
			if err != nil {
				return nil, err
			}
			fr.slots[tagSlot] = tv
			return entry.tnext, nil
		}
		c.pushLoop(false)
		// pendingFail: the not-yet-matched path threading through the case
		// tests. pendingFall: fallthrough edges from a matched case's last
		// statement into the next case's statements (skipping its tests).
		pendingFail := []jump{{entry, false}}
		var pendingFall []jump
		for _, cs := range x.Cases {
			var matchJumps []jump
			if cs.Exprs == nil {
				// default: matches as soon as the test chain reaches it, in
				// source position — the reference engine's (non-Java)
				// semantics, kept for parity.
				matchJumps = pendingFail
				pendingFail = nil
			} else {
				for _, ce := range cs.Exprs {
					cce := c.expr(ce)
					t := &cnode{}
					t.exec = func(v *vm, fr *cframe) (*cnode, error) {
						cv, err := cce(v, fr)
						if err != nil {
							return nil, err
						}
						if looseEqualVal(fr.slots[tagSlot], cv) {
							return t.tnext, nil
						}
						return t.fnext, nil
					}
					link(pendingFail, t)
					pendingFail = []jump{{t, true}}
					matchJumps = append(matchJumps, jump{t, false})
				}
			}
			if len(cs.Stmts) == 0 {
				pendingFall = append(pendingFall, matchJumps...)
				continue
			}
			cur := append(matchJumps, pendingFall...)
			pendingFall = nil
			for _, st := range cs.Stmts {
				e, o := c.stmt(st)
				link(cur, e)
				cur = o
			}
			pendingFall = cur
		}
		lc := c.popLoop()
		outs := append(pendingFail, pendingFall...)
		outs = append(outs, lc.breaks...)
		return entry, outs

	case *ast.Break:
		if x.Label != "" {
			return c.errStmt(line, "labeled break is not supported"), nil
		}
		n := c.stepNode(line)
		if lc := c.breakCtx(); lc != nil {
			lc.breaks = append(lc.breaks, jump{n, false})
		}
		// Outside any loop or switch the edge stays dangling: the dispatch
		// loop ends and the method returns nil, like a stray signal
		// propagating out of the body.
		return n, nil

	case *ast.Continue:
		if x.Label != "" {
			return c.errStmt(line, "labeled continue is not supported"), nil
		}
		n := c.stepNode(line)
		if lc := c.continueCtx(); lc != nil {
			lc.conts = append(lc.conts, jump{n, false})
		}
		return n, nil

	case *ast.Return:
		var re exprFn
		if x.X != nil {
			re = c.expr(x.X)
		}
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			if re != nil {
				cv, err := re(v, fr)
				if err != nil {
					return nil, err
				}
				fr.ret = cv
			}
			return nil, nil
		}
		return n, nil

	case *ast.Throw:
		e := c.expr(x.X)
		n := &cnode{}
		n.exec = func(v *vm, fr *cframe) (*cnode, error) {
			if err := v.step(line); err != nil {
				return nil, err
			}
			cv, err := e(v, fr)
			if err != nil {
				return nil, err
			}
			return nil, errAt(line, "exception thrown: %s", cv.format())
		}
		return n, nil
	}
	return c.errStmt(line, "unsupported statement %T", s), nil
}

// Compile lowers a compilation unit to closure code. The resulting Program
// is immutable and safe for concurrent Run calls; callers executing the same
// source repeatedly should compile once (or go through a Cache) and reuse it.
func Compile(unit *ast.CompilationUnit) *Program {
	defer compileTimer()()
	p := &Program{
		methods:     map[string]*compiledMethod{},
		globalIndex: map[string]int{},
	}
	// Register method shells first (bare methods first, first name wins,
	// bodyless declarations skipped — the tree-walker's table), so bodies can
	// resolve calls to any method regardless of declaration order.
	var bodies []*ast.Method
	for _, meth := range unit.AllMethods() {
		if _, dup := p.methods[meth.Name]; !dup && meth.Body != nil {
			p.methods[meth.Name] = &compiledMethod{name: meth.Name, line: meth.P.Line}
			bodies = append(bodies, meth)
		}
	}
	// Global slots: one per distinct field name; a duplicate declarator
	// shares the slot and its initializer overwrites, like the globals map.
	for _, cls := range unit.Classes {
		for _, fld := range cls.Fields {
			for _, d := range fld.Decl.Decls {
				if _, ok := p.globalIndex[d.Name]; !ok {
					p.globalIndex[d.Name] = p.nglobals
					p.nglobals++
				}
			}
		}
	}
	// Field initializers, in declaration order. Each compiles against an
	// empty local scope (globals only); the undefined sentinel makes forward
	// references to later fields fail exactly like the incrementally-built
	// globals map. Initializer expressions go through the generic expression
	// path and skip declaration coercion, as RunTreeWalk does.
	for _, cls := range unit.Classes {
		for _, fld := range cls.Fields {
			for _, d := range fld.Decl.Decls {
				gi := globalInit{slot: p.globalIndex[d.Name]}
				if d.Init != nil {
					ic := &compiler{p: p, fn: &compiledMethod{name: "<init>"}}
					gi.init = ic.expr(d.Init)
				} else {
					gi.zero = unbox(zeroValue(fld.Decl.Type.Name, fld.Decl.Type.Dims+d.ExtraDims))
				}
				p.inits = append(p.inits, gi)
			}
		}
	}
	for _, meth := range bodies {
		compileMethod(p, meth)
	}
	return p
}

// compileMethod lowers one method body into its shell: parameters land in
// the method's root scope, the body block gets its own, and the frame pool
// is sized to the method's final slot count.
func compileMethod(p *Program, meth *ast.Method) {
	fn := p.methods[meth.Name]
	c := &compiler{p: p, fn: fn}
	c.pushScope()
	fn.params = make([]paramSlot, len(meth.Params))
	for i, prm := range meth.Params {
		slot := c.declare(prm.Name)
		fn.params[i] = paramSlot{slot: slot, name: prm.Name, line: prm.P.Line}
	}
	entry, _ := c.stmt(meth.Body)
	c.popScope()
	if c.refs != nil {
		clear(c.refs)
		refsPool.Put(c.refs)
	}
	fn.entry = entry
	fn.nslots = c.nslots
	nslots, nwatches := c.nslots, c.nwatches
	fn.frames.New = func() any {
		return &cframe{slots: make([]val, nslots), watches: make([]loopWatch, nwatches)}
	}
}
