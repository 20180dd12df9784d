package interp

import (
	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
)

// Drifting counters. The loop
//
//	while (f * (n + 1) <= k) { n++; f *= n; }
//
// never ends once f is 0, yet its state never recurs: n grows by one per
// iteration. n feeds only its own increment and products with f, which
// are 0 and stay 0, so every iteration takes the same path in the same
// steps. The compiler proves, per loop, which slots can drift like n
// without reaching anything else; the loop's watch (watch.go) then accepts
// a match whose states differ only in those slots, by a fixed delta per
// period.
//
// The scan covers the loop's condition, body, update and nested loops. A
// read of a local slot there is safe in two cases:
//   - it is the counter's own read in a self-update x++, x--, x += c,
//     x -= c, x = x + c or x = x - c that is a statement or a for-update,
//     so its value is discarded, and whose c reads no drift-eligible slot;
//   - it sits in the factor e of z * e, e * z or z *= e, where z is a
//     zero-candidate and e is int-form.
//
// A zero-candidate is a local declared before the loop that the loop
// writes only as z *= e, z = z * e or z = e * z, or not at all; the watch
// checks that it holds 0 before it relies on one. An int-form factor holds
// only integer literals, locals, parentheses, unary -, +, - and *: no
// division, index, call, cast, assignment, && or ?:, whose steps or
// errors could depend on a value. Each of its locals resolves to one slot
// and is int-stable: declared before the loop and written in it only by
// x++, x--, x += lit, x -= lit, x = x + lit or x = x - lit, so a local
// that holds an int at the loop head holds one at every evaluation. A
// slot is drift-eligible when it is declared before the loop, is not a
// zero-candidate and every read of it in the loop is safe. A read through
// a candidate chain (varRef.slots) counts as a read of every slot in it.

// loopDrift is what the compiler proved about the slots of one loop.
type loopDrift struct {
	eligible []bool      // by slot; slots past its end are not eligible
	guards   []zeroGuard // the products whose factor reads an eligible slot
}

// zeroGuard is one product of a zero-candidate and an int-form factor.
type zeroGuard struct {
	zero  int   // the zero-candidate's slot
	slots []int // the locals the factor reads
}

// Write kinds of a slot in one loop.
const (
	writeStep  uint8 = 1 << iota // x++, x--, x += lit, x -= lit, x = x ± lit
	writeZero                    // z *= e, z = z * e, z = e * z
	writeOther                   // anything else
)

// driftScan classifies the reads and writes of the slots of one loop.
type driftScan struct {
	refs    map[*ast.Ident]varRef // the compiler's resolutions
	n       int                   // slots declared before the loop
	writes  []uint8               // by slot < n
	unsafe  []bool                // by slot < n: read outside a safe position
	updates []selfUpdate
	guards  []zeroGuard
}

// selfUpdate is one self-update statement: the slots its counter may
// resolve to and the slots its c reads.
type selfUpdate struct {
	counter []int
	reads   []int
}

// driftOf classifies one loop whose body starts declaring slots at
// bodyStart.
func (c *compiler) driftOf(bodyStart int, cond ast.Expr, body ast.Stmt, update []ast.Expr) loopDrift {
	s := &driftScan{refs: c.refs, n: bodyStart, writes: make([]uint8, bodyStart), unsafe: make([]bool, bodyStart)}
	s.noteWrites(cond)
	for _, u := range update {
		s.noteWrites(u)
	}
	ast.InspectStmt(body, nil, s.noteWrites)
	s.readExpr(cond)
	for _, u := range update {
		s.readStmtExpr(u)
	}
	s.readStmt(body)

	eligible := make([]bool, bodyStart)
	for i := range eligible {
		eligible[i] = !s.unsafe[i] && !s.zero(i)
	}
	// A counter's own read is safe only while its c reads no eligible
	// slot. Dropping a counter only shrinks the eligible set, so no c that
	// passed this check reads an eligible slot later: one pass settles it.
	for _, u := range s.updates {
		if !anyOf(eligible, u.reads) {
			continue
		}
		for _, sl := range u.counter {
			if sl < len(eligible) {
				eligible[sl] = false
			}
		}
	}
	d := loopDrift{eligible: eligible}
	for _, g := range s.guards {
		if anyOf(eligible, g.slots) {
			d.guards = append(d.guards, g)
		}
	}
	return d
}

// anyOf reports whether any of the slots is eligible.
func anyOf(eligible []bool, slots []int) bool {
	for _, sl := range slots {
		if sl < len(eligible) && eligible[sl] {
			return true
		}
	}
	return false
}

func (s *driftScan) zero(slot int) bool { return s.writes[slot]&^writeZero == 0 }

func (s *driftScan) intStable(slot int) bool { return s.writes[slot]&^writeStep == 0 }

// local returns the one slot declared before the loop that e names, with
// no other candidate and no global behind it.
func (s *driftScan) local(e ast.Expr) (int, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	ref, ok := s.refs[id]
	if !ok || len(ref.slots) != 1 || ref.global >= 0 || ref.slots[0] >= s.n {
		return 0, false
	}
	return ref.slots[0], true
}

// zeroOperand reports whether e names a zero-candidate.
func (s *driftScan) zeroOperand(e ast.Expr) bool {
	sl, ok := s.local(e)
	return ok && s.zero(sl)
}

// noteWrites records the writes to slots in one expression.
func (s *driftScan) noteWrites(e ast.Expr) {
	ast.Inspect(e, func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Unary:
			if x.Op == token.INC || x.Op == token.DEC {
				s.write(x.X, writeStep)
			}
		case *ast.Assign:
			s.write(x.Target, writeKind(x))
		}
		return true
	})
}

func (s *driftScan) write(target ast.Expr, kind uint8) {
	id, ok := unparen(target).(*ast.Ident)
	if !ok {
		return
	}
	for _, sl := range s.refs[id].slots {
		if sl < s.n {
			s.writes[sl] |= kind
		}
	}
}

// writeKind classifies an assignment to a local.
func writeKind(x *ast.Assign) uint8 {
	id, ok := unparen(x.Target).(*ast.Ident)
	if !ok {
		return writeOther
	}
	switch x.Op {
	case token.ADDASSIGN, token.SUBASSIGN:
		if intLit(x.Value) {
			return writeStep
		}
	case token.MULASSIGN:
		return writeZero
	case token.ASSIGN:
		if b, ok := x.Value.(*ast.Binary); ok {
			switch b.Op {
			case token.ADD, token.SUB:
				if sameName(b.L, id) && intLit(b.R) {
					return writeStep
				}
			case token.MUL:
				if sameName(b.L, id) || sameName(b.R, id) {
					return writeZero
				}
			}
		}
	}
	return writeOther
}

// readStmt records the reads of a statement tree. Expression statements
// and for-updates discard their value, so a self-update there is one.
func (s *driftScan) readStmt(st ast.Stmt) {
	ast.InspectStmt(st, func(st ast.Stmt) bool {
		switch x := st.(type) {
		case *ast.ExprStmt:
			s.readStmtExpr(x.X)
			return false
		case *ast.For:
			for _, in := range x.Init {
				s.readStmt(in)
			}
			s.readExpr(x.Cond)
			for _, u := range x.Update {
				s.readStmtExpr(u)
			}
			s.readStmt(x.Body)
			return false
		}
		return true
	}, s.readExpr)
}

// readStmtExpr records the reads of an expression whose value is
// discarded.
func (s *driftScan) readStmtExpr(e ast.Expr) {
	counter, c, ok := selfUpdateOf(e)
	if !ok {
		s.readExpr(e)
		return
	}
	s.readExpr(c)
	s.updates = append(s.updates, selfUpdate{counter: s.refs[counter].slots, reads: s.slotsIn(c)})
}

// slotsIn returns every slot an identifier in e may read.
func (s *driftScan) slotsIn(e ast.Expr) []int {
	var slots []int
	ast.Inspect(e, func(e ast.Expr) bool {
		if id, ok := e.(*ast.Ident); ok {
			slots = append(slots, s.refs[id].slots...)
		}
		return true
	})
	return slots
}

// selfUpdateOf returns the counter and the added c (nil for ++ and --)
// of x++, x--, ++x, --x, x += c, x -= c, x = x + c or x = x - c.
func selfUpdateOf(e ast.Expr) (*ast.Ident, ast.Expr, bool) {
	switch x := e.(type) {
	case *ast.Unary:
		if id, ok := x.X.(*ast.Ident); ok && (x.Op == token.INC || x.Op == token.DEC) {
			return id, nil, true
		}
	case *ast.Assign:
		id, ok := x.Target.(*ast.Ident)
		if !ok {
			break
		}
		switch x.Op {
		case token.ADDASSIGN, token.SUBASSIGN:
			return id, x.Value, true
		case token.ASSIGN:
			if b, ok := x.Value.(*ast.Binary); ok && (b.Op == token.ADD || b.Op == token.SUB) && sameName(b.L, id) {
				return id, b.R, true
			}
		}
	}
	return nil, nil, false
}

// readExpr records the reads of an expression whose value is used.
func (s *driftScan) readExpr(e ast.Expr) {
	ast.Inspect(e, func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			s.read(x)
		case *ast.Binary:
			if x.Op != token.MUL {
				break
			}
			if s.zeroOperand(x.L) {
				s.read(x.L.(*ast.Ident))
				s.factor(x.L, x.R)
				return false
			}
			if s.zeroOperand(x.R) {
				s.factor(x.R, x.L)
				s.read(x.R.(*ast.Ident))
				return false
			}
		case *ast.Assign:
			id, ok := unparen(x.Target).(*ast.Ident)
			if !ok {
				return true // an index target reads its array and index
			}
			if x.Op != token.ASSIGN {
				s.read(id)
			}
			if x.Op == token.MULASSIGN && s.zeroOperand(id) {
				s.factor(id, x.Value)
			} else {
				s.readExpr(x.Value)
			}
			return false
		}
		return true
	})
}

// read records a read of id outside a safe position.
func (s *driftScan) read(id *ast.Ident) {
	for _, sl := range s.refs[id].slots {
		if sl < s.n {
			s.unsafe[sl] = true
		}
	}
}

// factor records the reads of e, a factor of a product with the
// zero-candidate z: safe reads of a guard when e is int-form, ordinary
// reads otherwise.
func (s *driftScan) factor(z, e ast.Expr) {
	zs, _ := s.local(z)
	g := zeroGuard{zero: zs}
	if !s.intForm(e, &g.slots) {
		s.readExpr(e)
		return
	}
	s.guards = append(s.guards, g)
}

// intForm reports whether e is an int-form factor, appending its locals
// to slots.
func (s *driftScan) intForm(e ast.Expr, slots *[]int) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return intLit(x)
	case *ast.Ident:
		sl, ok := s.local(x)
		if !ok || !s.intStable(sl) {
			return false
		}
		*slots = append(*slots, sl)
		return true
	case *ast.Paren:
		return s.intForm(x.X, slots)
	case *ast.Unary:
		return x.Op == token.SUB && s.intForm(x.X, slots)
	case *ast.Binary:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL:
			return s.intForm(x.L, slots) && s.intForm(x.R, slots)
		}
	}
	return false
}

// intLit reports whether e is an integer literal that evaluates.
func intLit(e ast.Expr) bool {
	lit, ok := e.(*ast.Literal)
	if !ok || (lit.Kind != token.INT && lit.Kind != token.LONG) {
		return false
	}
	_, err := evalLiteral(lit)
	return err == nil
}

func sameName(e ast.Expr, id *ast.Ident) bool {
	x, ok := e.(*ast.Ident)
	return ok && x.Name == id.Name
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
