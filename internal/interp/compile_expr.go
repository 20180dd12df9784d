package interp

import (
	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
)

// This file lowers expressions to exprFn closures and assignment targets to
// storeFn closures. Every closure charges one step for its own AST node
// before doing work — the position machine.eval charges from — and dispatches
// into the same pure helpers (binaryOp, mathCall, stringCall, ...) the
// tree-walker uses, so values and error strings agree by construction. The
// closures compute on value cells: two int cells meet in the int helpers
// binaryOp itself uses (intCompare, intArith), every other operand boxes
// into the Value-typed helper.

// boolFn evaluates an expression that must yield a boolean (conditions and
// short-circuit operands).
type boolFn func(*vm, *cframe) (bool, error)

// errExpr is a compile-time-known failure: it still charges the node's step
// before erroring, like the tree-walker reaching the same node.
func errExpr(line int, format string, args ...any) exprFn {
	err := errAt(line, format, args...)
	return func(v *vm, fr *cframe) (val, error) {
		if serr := v.step(line); serr != nil {
			return val{}, serr
		}
		return val{}, err
	}
}

func (c *compiler) exprList(exprs []ast.Expr) []exprFn {
	fns := make([]exprFn, len(exprs))
	for i, e := range exprs {
		fns[i] = c.expr(e)
	}
	return fns
}

// evalAll evaluates the arguments of a builtin or library call, boxed.
func evalAll(v *vm, fr *cframe, fns []exprFn) ([]Value, error) {
	args := make([]Value, len(fns))
	for i, fn := range fns {
		cv, err := fn(v, fr)
		if err != nil {
			return nil, err
		}
		args[i] = cv.boxed()
	}
	return args, nil
}

// binaryVal is binaryOp on cells: two ints go to the int helpers unboxed,
// any other pair through binaryOp itself.
func binaryVal(op token.Kind, l, r val, line int) (val, error) {
	if l.isInt() && r.isInt() {
		if b, ok := intCompare(op, l.n, r.n); ok {
			return val{v: b}, nil
		}
		n, err := intArith(op, l.n, r.n, line)
		return intVal(n), err
	}
	return unboxRes(binaryOp(op, l.boxed(), r.boxed(), line))
}

// incDecVal is incDecValue on a cell.
func incDecVal(op token.Kind, old val, delta int64, line int) (val, error) {
	if old.isInt() {
		return intVal(old.n + delta), nil
	}
	return unboxRes(incDecValue(op, old.boxed(), delta, line))
}

// narrowVal is narrowCompound on cells. narrowCompound keeps the result of
// an int64 target as it is (binaryOp never yields a Char for one), so only
// other targets box.
func narrowVal(old, nv val) val {
	if old.isInt() {
		return nv
	}
	return unbox(narrowCompound(old.boxed(), nv.boxed()))
}

// isIntegral reports whether values of the named type are int64s.
func isIntegral(typeName string) bool {
	switch typeName {
	case "int", "long", "byte", "short":
		return true
	}
	return false
}

// coerceVal is coerceElem on a cell; coerceElem is the identity on an
// int64 bound for an integral type.
func coerceVal(cv val, typeName string) val {
	if cv.isInt() && isIntegral(typeName) {
		return cv
	}
	return unbox(coerceElem(cv.boxed(), typeName))
}

// indexVal is checkIndex on a cell.
func indexVal(cv val, length, line int) (int, error) {
	if cv.isInt() {
		return checkBounds(cv.n, length, line)
	}
	return checkIndex(cv.v, length, line)
}

// looseEqualVal is looseEqual on cells, for switch case tests.
func looseEqualVal(a, b val) bool {
	if a.isInt() && b.isInt() {
		return a.n == b.n
	}
	return looseEqual(a.boxed(), b.boxed())
}

// boolExpr wraps an expression with the boolean check evalBool performs,
// erroring at the expression's own line.
func (c *compiler) boolExpr(e ast.Expr) boolFn {
	fn := c.expr(e)
	line := e.Pos().Line
	return func(v *vm, fr *cframe) (bool, error) {
		cv, err := fn(v, fr)
		if err != nil {
			return false, err
		}
		b, ok := cv.v.(bool)
		if !ok {
			return false, errAt(line, "condition is %s, not boolean", valueType(cv.boxed()))
		}
		return b, nil
	}
}

// fuseOp is a fused operand: an identifier resolved to exactly one local
// slot, or a constant literal. The hot interpreter loops are built almost
// entirely from these (i <= n, s += i, i++), so the binary/compound/inc-dec
// closures evaluate them inline instead of calling a child closure per
// operand. Step charges, undef checks and error text match the generic path
// exactly — fusion changes dispatch, not semantics.
type fuseOp struct {
	slot int // -1: constant literal
	lit  val // literal value when slot < 0
	name string
	line int
}

func (c *compiler) fuseOperand(e ast.Expr) (fuseOp, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		ref := c.resolve(x)
		if len(ref.slots) == 1 && ref.global < 0 {
			return fuseOp{slot: ref.slots[0], name: x.Name, line: x.P.Line}, true
		}
	case *ast.Literal:
		if lit, err := evalLiteral(x); err == nil {
			return fuseOp{slot: -1, lit: unbox(lit), line: x.P.Line}, true
		}
	}
	return fuseOp{}, false
}

func (o *fuseOp) eval(v *vm, fr *cframe) (val, error) {
	if err := v.step(o.line); err != nil {
		return val{}, err
	}
	if o.slot < 0 {
		return o.lit, nil
	}
	if cv := fr.slots[o.slot]; cv.defined() {
		return cv, nil
	}
	return val{}, errAt(o.line, "cannot resolve variable %s", o.name)
}

func (c *compiler) expr(e ast.Expr) exprFn {
	line := e.Pos().Line
	switch x := e.(type) {
	case *ast.Literal:
		lit, err := evalLiteral(x)
		if err != nil {
			lerr := err
			return func(v *vm, fr *cframe) (val, error) {
				if serr := v.step(line); serr != nil {
					return val{}, serr
				}
				return val{}, lerr
			}
		}
		return constExpr(line, lit)

	case *ast.Ident:
		ref := c.resolve(x)
		name := x.Name
		if len(ref.slots) == 1 && ref.global < 0 {
			slot := ref.slots[0]
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				if cv := fr.slots[slot]; cv.defined() {
					return cv, nil
				}
				return val{}, errAt(line, "cannot resolve variable %s", name)
			}
		}
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			if cv, ok := ref.read(v, fr); ok {
				return cv, nil
			}
			return val{}, errAt(line, "cannot resolve variable %s", name)
		}

	case *ast.Paren:
		inner := c.expr(x.X)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			return inner(v, fr)
		}

	case *ast.Binary:
		switch x.Op {
		case token.LAND:
			lf := c.boolExpr(x.L)
			rf := c.boolExpr(x.R)
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				l, err := lf(v, fr)
				if err != nil || !l {
					return val{v: false}, err
				}
				r, err := rf(v, fr)
				return val{v: r}, err
			}
		case token.LOR:
			lf := c.boolExpr(x.L)
			rf := c.boolExpr(x.R)
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				l, err := lf(v, fr)
				if err != nil || l {
					return val{v: l}, err
				}
				r, err := rf(v, fr)
				return val{v: r}, err
			}
		}
		op := x.Op
		if lo, lok := c.fuseOperand(x.L); lok {
			if ro, rok := c.fuseOperand(x.R); rok {
				return func(v *vm, fr *cframe) (val, error) {
					if err := v.step(line); err != nil {
						return val{}, err
					}
					l, err := lo.eval(v, fr)
					if err != nil {
						return val{}, err
					}
					r, err := ro.eval(v, fr)
					if err != nil {
						return val{}, err
					}
					return binaryVal(op, l, r, line)
				}
			}
		}
		lf := c.expr(x.L)
		rf := c.expr(x.R)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			l, err := lf(v, fr)
			if err != nil {
				return val{}, err
			}
			r, err := rf(v, fr)
			if err != nil {
				return val{}, err
			}
			return binaryVal(op, l, r, line)
		}

	case *ast.Unary:
		if x.Op == token.INC || x.Op == token.DEC {
			delta := int64(1)
			if x.Op == token.DEC {
				delta = -1
			}
			op := x.Op
			postfix := x.Postfix
			if o, ok := c.fuseOperand(x.X); ok && o.slot >= 0 {
				mname := c.fn.name
				return func(v *vm, fr *cframe) (val, error) {
					if err := v.step(line); err != nil {
						return val{}, err
					}
					old, err := o.eval(v, fr)
					if err != nil {
						return val{}, err
					}
					nv, err := incDecVal(op, old, delta, line)
					if err != nil {
						return val{}, err
					}
					fr.slots[o.slot] = nv
					if v.tracer != nil {
						v.tracer.OnAssign(mname, o.line, o.name, nv.boxed())
					}
					if postfix {
						return old, nil
					}
					return nv, nil
				}
			}
			rd := c.expr(x.X)
			st := c.lvalue(x.X)
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				old, err := rd(v, fr)
				if err != nil {
					return val{}, err
				}
				nv, err := incDecVal(op, old, delta, line)
				if err != nil {
					return val{}, err
				}
				if err := st(v, fr, nv); err != nil {
					return val{}, err
				}
				if postfix {
					return old, nil
				}
				return nv, nil
			}
		}
		xf := c.expr(x.X)
		op := x.Op
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := xf(v, fr)
			if err != nil {
				return val{}, err
			}
			return unboxRes(unaryOp(op, cv.boxed(), line))
		}

	case *ast.Assign:
		var vf exprFn
		if lit, ok := x.Value.(*ast.ArrayLit); ok {
			vf = c.arrayLit(lit, "int", false)
		} else {
			vf = c.expr(x.Value)
		}
		st := c.lvalue(x.Target)
		if x.Op == token.ASSIGN {
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				cv, err := vf(v, fr)
				if err != nil {
					return val{}, err
				}
				if err := st(v, fr, cv); err != nil {
					return val{}, err
				}
				return cv, nil
			}
		}
		tf := c.expr(x.Target)
		binOp, ok := compoundOp(x.Op)
		if !ok {
			// The tree-walker evaluates both sides before rejecting the
			// operator; preserve that (side effects and step parity).
			op := x.Op
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				if _, err := vf(v, fr); err != nil {
					return val{}, err
				}
				if _, err := tf(v, fr); err != nil {
					return val{}, err
				}
				return val{}, errAt(line, "unsupported compound assignment %s", op)
			}
		}
		if to, tok := c.fuseOperand(x.Target); tok && to.slot >= 0 {
			if vo, vok := c.fuseOperand(x.Value); vok {
				mname := c.fn.name
				return func(v *vm, fr *cframe) (val, error) {
					if err := v.step(line); err != nil {
						return val{}, err
					}
					cv, err := vo.eval(v, fr)
					if err != nil {
						return val{}, err
					}
					old, err := to.eval(v, fr)
					if err != nil {
						return val{}, err
					}
					cv, err = binaryVal(binOp, old, cv, line)
					if err != nil {
						return val{}, err
					}
					cv = narrowVal(old, cv)
					fr.slots[to.slot] = cv
					if v.tracer != nil {
						v.tracer.OnAssign(mname, to.line, to.name, cv.boxed())
					}
					return cv, nil
				}
			}
		}
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := vf(v, fr)
			if err != nil {
				return val{}, err
			}
			old, err := tf(v, fr)
			if err != nil {
				return val{}, err
			}
			cv, err = binaryVal(binOp, old, cv, line)
			if err != nil {
				return val{}, err
			}
			cv = narrowVal(old, cv)
			if err := st(v, fr, cv); err != nil {
				return val{}, err
			}
			return cv, nil
		}

	case *ast.Ternary:
		cf := c.boolExpr(x.Cond)
		tf := c.expr(x.Then)
		ef := c.expr(x.Else)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			b, err := cf(v, fr)
			if err != nil {
				return val{}, err
			}
			if b {
				return tf(v, fr)
			}
			return ef(v, fr)
		}

	case *ast.Call:
		return c.call(x)

	case *ast.FieldAccess:
		return c.fieldAccess(x)

	case *ast.Index:
		xf := c.expr(x.X)
		idxf := c.expr(x.Idx)
		idxLine := x.Idx.Pos().Line
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			arrv, err := xf(v, fr)
			if err != nil {
				return val{}, err
			}
			arr, ok := arrv.v.(*Array)
			if !ok || arr == nil {
				return val{}, errAt(line, "array access on %s", valueType(arrv.boxed()))
			}
			iv, err := idxf(v, fr)
			if err != nil {
				return val{}, err
			}
			i, err := indexVal(iv, len(arr.Elems), idxLine)
			if err != nil {
				return val{}, err
			}
			return unbox(arr.Elems[i]), nil
		}

	case *ast.NewArray:
		if x.Init != nil {
			// new T[]{...}: the literal's node line is the new-expression's,
			// and its single step is the one this node would charge.
			return c.arrayLit(&ast.ArrayLit{Elems: x.Init, P: x.P}, x.Elem.Name, true)
		}
		if len(x.Dims) == 0 {
			return errExpr(line, "new array without dimensions")
		}
		dims := c.exprList(x.Dims)
		elem := x.Elem.Name
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			sizes := make([]int, len(dims))
			for i, df := range dims {
				dv, err := df(v, fr)
				if err != nil {
					return val{}, err
				}
				n, err := checkArrayDim(dv.boxed(), line)
				if err != nil {
					return val{}, err
				}
				sizes[i] = n
			}
			return val{v: buildArray(elem, sizes, 0)}, nil
		}

	case *ast.ArrayLit:
		return c.arrayLit(x, "int", true)

	case *ast.NewObject:
		return c.newObject(x)

	case *ast.Cast:
		xf := c.expr(x.X)
		to := x.To
		if to.Dims == 0 && isIntegral(to.Name) {
			// castValue's int64 and float64 cases, on cells.
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				cv, err := xf(v, fr)
				if err != nil || cv.isInt() {
					return cv, err
				}
				if f, ok := cv.v.(float64); ok {
					return intVal(int64(f)), nil
				}
				return unboxRes(castValue(cv.boxed(), to, line))
			}
		}
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := xf(v, fr)
			if err != nil {
				return val{}, err
			}
			return unboxRes(castValue(cv.boxed(), to, line))
		}

	case *ast.InstanceOf:
		xf := c.expr(x.X)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := xf(v, fr)
			if err != nil {
				return val{}, err
			}
			return val{v: cv.v != nil}, nil
		}
	}
	return errExpr(line, "unsupported expression %T", e)
}

// arrayLit compiles an array literal. selfStep reproduces the tree-walker's
// asymmetry: a literal reached through generic eval charges a step for its
// own node, but one consumed directly by a declaration initializer or
// assignment value (evalArrayLit called without eval) does not. Nested
// literals never self-step.
func (c *compiler) arrayLit(lit *ast.ArrayLit, elem string, selfStep bool) exprFn {
	line := lit.P.Line
	els := make([]exprFn, len(lit.Elems))
	for i, el := range lit.Elems {
		if inner, ok := el.(*ast.ArrayLit); ok {
			els[i] = c.arrayLit(inner, elem, false)
		} else {
			els[i] = c.expr(el)
		}
	}
	return func(v *vm, fr *cframe) (val, error) {
		if selfStep {
			if err := v.step(line); err != nil {
				return val{}, err
			}
		}
		arr := &Array{Elem: elem, Elems: make([]Value, len(els))}
		for i, ef := range els {
			cv, err := ef(v, fr)
			if err != nil {
				return val{}, err
			}
			arr.Elems[i] = coerceVal(cv, elem).boxed()
		}
		return val{v: arr}, nil
	}
}

// lvalue compiles an assignment target to a store closure.
func (c *compiler) lvalue(target ast.Expr) storeFn {
	switch t := target.(type) {
	case *ast.Paren:
		return c.lvalue(t.X)

	case *ast.Ident:
		ref := c.resolve(t)
		name := t.Name
		line := t.P.Line
		mname := c.fn.name
		return func(v *vm, fr *cframe, cv val) error {
			for _, s := range ref.slots {
				if fr.slots[s].defined() {
					fr.slots[s] = cv
					if v.tracer != nil {
						v.tracer.OnAssign(mname, line, name, cv.boxed())
					}
					return nil
				}
			}
			if ref.global >= 0 && v.globals[ref.global].defined() {
				v.globals[ref.global] = cv
				if v.tracer != nil {
					v.tracer.OnAssign(mname, line, name, cv.boxed())
				}
				return nil
			}
			return errAt(line, "cannot resolve variable %s", name)
		}

	case *ast.Index:
		xf := c.expr(t.X)
		idxf := c.expr(t.Idx)
		line := t.P.Line
		idxLine := t.Idx.Pos().Line
		var rootName string
		if root, ok := t.X.(*ast.Ident); ok {
			rootName = root.Name
		}
		mname := c.fn.name
		return func(v *vm, fr *cframe, cv val) error {
			arrv, err := xf(v, fr)
			if err != nil {
				return err
			}
			arr, ok := arrv.v.(*Array)
			if !ok || arr == nil {
				return errAt(line, "array store on %s", valueType(arrv.boxed()))
			}
			iv, err := idxf(v, fr)
			if err != nil {
				return err
			}
			i, err := indexVal(iv, len(arr.Elems), idxLine)
			if err != nil {
				return err
			}
			arr.Elems[i] = coerceVal(cv, arr.Elem).boxed()
			v.heapWrites++
			if rootName != "" && v.tracer != nil {
				v.tracer.OnAssign(mname, line, rootName, arr)
			}
			return nil
		}
	}
	line := target.Pos().Line
	err := errAt(line, "invalid assignment target %T", target)
	return func(v *vm, fr *cframe, cv val) error { return err }
}

// call compiles a method invocation, preserving the tree-walker's dispatch
// order: print family by syntax, known static classes, unqualified user
// methods (resolved at compile time against the program's method table),
// then instance dispatch on the receiver's runtime type.
func (c *compiler) call(x *ast.Call) exprFn {
	line := x.P.Line
	if fa, ok := x.Recv.(*ast.FieldAccess); ok {
		if root, ok2 := fa.X.(*ast.Ident); ok2 && root.Name == "System" && (fa.Name == "out" || fa.Name == "err") {
			return c.printCall(x)
		}
	}
	if recv, ok := x.Recv.(*ast.Ident); ok {
		var dispatch func(string, []Value, int) (Value, error)
		switch recv.Name {
		case "Math":
			dispatch = mathCall
		case "Integer", "Long":
			dispatch = integerStaticCall
		case "Double":
			dispatch = doubleStaticCall
		case "String":
			dispatch = stringStaticCall
		case "Character":
			dispatch = characterStaticCall
		case "Arrays":
			dispatch = arraysStaticCall
		case "System":
			if x.Name == "exit" {
				return errExpr(line, "System.exit called")
			}
		}
		if dispatch != nil {
			argFns := c.exprList(x.Args)
			name := x.Name
			sorts := recv.Name == "Arrays" && name == "sort"
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				args, err := evalAll(v, fr, argFns)
				if err != nil {
					return val{}, err
				}
				if sorts {
					v.heapWrites++
				}
				return unboxRes(dispatch(name, args, line))
			}
		}
	}
	if x.Recv == nil {
		// Method shells are registered before any body compiles, so
		// resolution at compile time sees every method the tree-walker would.
		fn, ok := c.p.methods[x.Name]
		if !ok {
			return errExpr(line, "cannot resolve method %s", x.Name)
		}
		// Arguments evaluate straight into the callee's parameter slots.
		argFns := c.exprList(x.Args)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			if len(argFns) != len(fn.params) {
				for _, af := range argFns {
					if _, err := af(v, fr); err != nil {
						return val{}, err
					}
				}
				return val{}, v.arityErr(fn, len(argFns))
			}
			callee := fn.getFrame()
			for i, af := range argFns {
				cv, err := af(v, fr)
				if err != nil {
					fn.frames.Put(callee)
					return val{}, err
				}
				callee.slots[fn.params[i].slot] = cv
			}
			return v.invoke(fn, callee)
		}
	}
	recvFn := c.expr(x.Recv)
	argFns := c.exprList(x.Args)
	name := x.Name
	return func(v *vm, fr *cframe) (val, error) {
		if err := v.step(line); err != nil {
			return val{}, err
		}
		r, err := recvFn(v, fr)
		if err != nil {
			return val{}, err
		}
		switch rv := r.v.(type) {
		case *Scanner:
			// Scanner methods never evaluate call arguments.
			v.heapWrites++
			return unboxRes(scannerCall(rv, name, line))
		case string:
			args, err := evalAll(v, fr, argFns)
			if err != nil {
				return val{}, err
			}
			return unboxRes(stringCall(rv, name, args, line))
		case *Array:
			return val{}, errAt(line, "arrays have no method %s", name)
		case nil:
			return val{}, errAt(line, "NullPointerException: calling %s on null", name)
		}
		return val{}, errAt(line, "cannot call %s on %s", name, valueType(r.boxed()))
	}
}

// printCall compiles the System.out/System.err print family. Arity errors
// fire before any argument evaluates, like evalPrint.
func (c *compiler) printCall(x *ast.Call) exprFn {
	line := x.P.Line
	switch x.Name {
	case "print", "println":
		if len(x.Args) > 1 {
			return errExpr(line, "%s takes at most one argument", x.Name)
		}
		newline := x.Name == "println"
		if len(x.Args) == 0 {
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				if newline {
					v.out.WriteByte('\n')
				}
				return val{}, nil
			}
		}
		af := c.expr(x.Args[0])
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := af(v, fr)
			if err != nil {
				return val{}, err
			}
			v.out.WriteString(cv.format())
			if newline {
				v.out.WriteByte('\n')
			}
			return val{}, nil
		}
	case "printf", "format":
		if len(x.Args) == 0 {
			return errExpr(line, "printf needs a format string")
		}
		argFns := c.exprList(x.Args)
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			args, err := evalAll(v, fr, argFns)
			if err != nil {
				return val{}, err
			}
			s, err := printfText(args, line)
			if err != nil {
				return val{}, err
			}
			v.out.WriteString(s)
			return val{}, nil
		}
	}
	return errExpr(line, "System.out has no method %s", x.Name)
}

// fieldAccess compiles a.length / Class.FIELD / System.in. When the root is
// an identifier the choice between variable field access and static constant
// is made at runtime by peeking the variable (without a step), exactly as
// evalField consults f.lookup; when no binding can ever exist the static
// path is selected at compile time.
func (c *compiler) fieldAccess(x *ast.FieldAccess) exprFn {
	line := x.P.Line
	fname := x.Name
	if root, ok := x.X.(*ast.Ident); ok {
		ref := c.resolve(root)
		class := root.Name
		rootLine := root.P.Line
		if ref.empty() {
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				return unboxRes(staticFieldValue(class, fname, line))
			}
		}
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, ok := ref.read(v, fr)
			if !ok {
				return unboxRes(staticFieldValue(class, fname, line))
			}
			// The tree-walker re-evaluates the root identifier, charging its
			// step.
			if err := v.step(rootLine); err != nil {
				return val{}, err
			}
			return unboxRes(fieldOn(cv.boxed(), fname, line))
		}
	}
	xf := c.expr(x.X)
	return func(v *vm, fr *cframe) (val, error) {
		if err := v.step(line); err != nil {
			return val{}, err
		}
		cv, err := xf(v, fr)
		if err != nil {
			return val{}, err
		}
		return unboxRes(fieldOn(cv.boxed(), fname, line))
	}
}

// newObject compiles new C(args) for the supported classes. Arity errors
// fire before argument evaluation; new String(a, b) evaluates only the first
// argument — both tree-walker behaviors.
func (c *compiler) newObject(x *ast.NewObject) exprFn {
	line := x.P.Line
	switch x.Class {
	case "Scanner", "java.util.Scanner":
		if len(x.Args) != 1 {
			return errExpr(line, "new Scanner expects 1 argument")
		}
		af := c.expr(x.Args[0])
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := af(v, fr)
			if err != nil {
				return val{}, err
			}
			return unboxRes(scannerFromValue(cv.boxed(), line, v.stdin, v.files))
		}
	case "File", "java.io.File":
		if len(x.Args) != 1 {
			return errExpr(line, "new File expects 1 argument")
		}
		af := c.expr(x.Args[0])
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := af(v, fr)
			if err != nil {
				return val{}, err
			}
			return unboxRes(fileFromValue(cv.boxed(), line))
		}
	case "String":
		if len(x.Args) == 0 {
			return constExpr(line, "")
		}
		af := c.expr(x.Args[0])
		return func(v *vm, fr *cframe) (val, error) {
			if err := v.step(line); err != nil {
				return val{}, err
			}
			cv, err := af(v, fr)
			if err != nil {
				return val{}, err
			}
			return val{v: cv.format()}, nil
		}
	case "StringBuilder", "StringBuffer":
		if len(x.Args) == 1 {
			af := c.expr(x.Args[0])
			return func(v *vm, fr *cframe) (val, error) {
				if err := v.step(line); err != nil {
					return val{}, err
				}
				cv, err := af(v, fr)
				if err != nil {
					return val{}, err
				}
				return val{v: cv.format()}, nil
			}
		}
		return constExpr(line, "")
	}
	return errExpr(line, "cannot instantiate %s", x.Class)
}

// constExpr charges the node's step and yields a fixed value.
func constExpr(line int, x Value) exprFn {
	cv := unbox(x)
	return func(v *vm, fr *cframe) (val, error) {
		if err := v.step(line); err != nil {
			return val{}, err
		}
		return cv, nil
	}
}
