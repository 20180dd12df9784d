package interp

import (
	"math"
	"strconv"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
)

func (m *machine) eval(e ast.Expr, f *frame) (Value, error) {
	if err := m.step(e.Pos().Line); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *ast.Literal:
		return evalLiteral(x)

	case *ast.Ident:
		if v, ok := f.lookup(x.Name); ok {
			return v, nil
		}
		return nil, errAt(x.P.Line, "cannot resolve variable %s", x.Name)

	case *ast.Paren:
		return m.eval(x.X, f)

	case *ast.Binary:
		return m.evalBinary(x, f)

	case *ast.Unary:
		return m.evalUnary(x, f)

	case *ast.Assign:
		return m.evalAssign(x, f)

	case *ast.Ternary:
		c, err := m.evalBool(x.Cond, f)
		if err != nil {
			return nil, err
		}
		if c {
			return m.eval(x.Then, f)
		}
		return m.eval(x.Else, f)

	case *ast.Call:
		return m.evalCall(x, f)

	case *ast.FieldAccess:
		return m.evalField(x, f)

	case *ast.Index:
		arrv, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		arr, ok := arrv.(*Array)
		if !ok || arr == nil {
			return nil, errAt(x.P.Line, "array access on %s", valueType(arrv))
		}
		idx, err := m.evalIndex(x.Idx, len(arr.Elems), f)
		if err != nil {
			return nil, err
		}
		return arr.Elems[idx], nil

	case *ast.NewArray:
		return m.evalNewArray(x, f)

	case *ast.ArrayLit:
		return m.evalArrayLit(x, "int", f)

	case *ast.NewObject:
		return m.evalNewObject(x, f)

	case *ast.Cast:
		v, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		return castValue(v, x.To, x.P.Line)

	case *ast.InstanceOf:
		v, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		return v != nil, nil
	}
	return nil, errAt(e.Pos().Line, "unsupported expression %T", e)
}

func evalLiteral(x *ast.Literal) (Value, error) {
	switch x.Kind {
	case token.INT, token.LONG:
		v, err := strconv.ParseInt(x.Text, 0, 64)
		if err != nil {
			// Out-of-range literals overflow like Java ints would.
			u, uerr := strconv.ParseUint(x.Text, 0, 64)
			if uerr != nil {
				return nil, errAt(x.P.Line, "bad integer literal %q", x.Text)
			}
			return int64(u), nil
		}
		return v, nil
	case token.FLOAT:
		v, err := strconv.ParseFloat(x.Text, 64)
		if err != nil {
			return nil, errAt(x.P.Line, "bad float literal %q", x.Text)
		}
		return v, nil
	case token.CHAR:
		if x.Text == "" {
			return Char(0), nil
		}
		return Char([]rune(x.Text)[0]), nil
	case token.STRING:
		return x.Text, nil
	case token.TRUE:
		return true, nil
	case token.FALSE:
		return false, nil
	case token.NULL:
		return nil, nil
	}
	return nil, errAt(x.P.Line, "bad literal kind %s", x.Kind)
}

func (m *machine) evalIndex(e ast.Expr, length int, f *frame) (int, error) {
	v, err := m.eval(e, f)
	if err != nil {
		return 0, err
	}
	return checkIndex(v, length, e.Pos().Line)
}

// checkIndex validates an array subscript value against the array length,
// shared by the tree-walk and compiled engines.
func checkIndex(v Value, length int, line int) (int, error) {
	i, ok := AsInt(v)
	if !ok {
		return 0, errAt(line, "array index is %s, not int", valueType(v))
	}
	return checkBounds(i, length, line)
}

// checkBounds is checkIndex's bounds check on an integral subscript.
func checkBounds(i int64, length int, line int) (int, error) {
	if i < 0 || int(i) >= length {
		return 0, errAt(line, "ArrayIndexOutOfBoundsException: index %d, length %d", i, length)
	}
	return int(i), nil
}

func (m *machine) evalBinary(x *ast.Binary, f *frame) (Value, error) {
	// Short-circuit operators first.
	switch x.Op {
	case token.LAND:
		l, err := m.evalBool(x.L, f)
		if err != nil || !l {
			return false, err
		}
		return m.evalBool(x.R, f)
	case token.LOR:
		l, err := m.evalBool(x.L, f)
		if err != nil || l {
			return l, err
		}
		return m.evalBool(x.R, f)
	}
	l, err := m.eval(x.L, f)
	if err != nil {
		return nil, err
	}
	r, err := m.eval(x.R, f)
	if err != nil {
		return nil, err
	}
	return binaryOp(x.Op, l, r, x.P.Line)
}

func binaryOp(op token.Kind, l, r Value, line int) (Value, error) {
	// String concatenation.
	if op == token.ADD {
		if _, ok := l.(string); ok {
			return l.(string) + Format(r), nil
		}
		if _, ok := r.(string); ok {
			return Format(l) + r.(string), nil
		}
	}
	switch op {
	case token.EQL:
		return refEqual(l, r), nil
	case token.NEQ:
		return !refEqual(l, r), nil
	}
	// Boolean bitwise operators.
	if lb, ok := l.(bool); ok {
		rb, ok2 := r.(bool)
		if !ok2 {
			return nil, errAt(line, "operator %s on boolean and %s", op, valueType(r))
		}
		switch op {
		case token.AND:
			return lb && rb, nil
		case token.OR:
			return lb || rb, nil
		case token.XOR:
			return lb != rb, nil
		}
		return nil, errAt(line, "operator %s on booleans", op)
	}
	// Numeric promotion: double wins.
	lf, lIsF := l.(float64)
	rf, rIsF := r.(float64)
	if lIsF || rIsF {
		var lv, rv float64
		var ok bool
		if lv, ok = AsFloat(l); !ok {
			return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
		}
		if rv, ok = AsFloat(r); !ok {
			return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
		}
		_ = lf
		_ = rf
		switch op {
		case token.ADD:
			return lv + rv, nil
		case token.SUB:
			return lv - rv, nil
		case token.MUL:
			return lv * rv, nil
		case token.QUO:
			return lv / rv, nil
		case token.REM:
			return math.Mod(lv, rv), nil
		case token.LSS:
			return lv < rv, nil
		case token.LEQ:
			return lv <= rv, nil
		case token.GTR:
			return lv > rv, nil
		case token.GEQ:
			return lv >= rv, nil
		}
		return nil, errAt(line, "operator %s on doubles", op)
	}
	li, lok := AsInt(l)
	ri, rok := AsInt(r)
	if !lok || !rok {
		// String comparison via compareTo is a method; == handled above.
		return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
	}
	if b, ok := intCompare(op, li, ri); ok {
		return b, nil
	}
	n, err := intArith(op, li, ri, line)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// intCompare applies a comparison operator to two integral operands; ok is
// false for any other operator. It and intArith are binaryOp's int×int
// semantics, which the compiled engine calls on unboxed ints.
func intCompare(op token.Kind, l, r int64) (res, ok bool) {
	switch op {
	case token.LSS:
		return l < r, true
	case token.LEQ:
		return l <= r, true
	case token.GTR:
		return l > r, true
	case token.GEQ:
		return l >= r, true
	case token.EQL:
		return l == r, true
	case token.NEQ:
		return l != r, true
	}
	return false, false
}

// intArith applies an arithmetic, bitwise or shift operator to two integral
// operands, wrapping at 64 bits.
func intArith(op token.Kind, l, r int64, line int) (int64, error) {
	switch op {
	case token.ADD:
		return l + r, nil
	case token.SUB:
		return l - r, nil
	case token.MUL:
		return l * r, nil
	case token.QUO:
		if r == 0 {
			return 0, errAt(line, "ArithmeticException: / by zero")
		}
		return l / r, nil
	case token.REM:
		if r == 0 {
			return 0, errAt(line, "ArithmeticException: / by zero")
		}
		return l % r, nil
	case token.AND:
		return l & r, nil
	case token.OR:
		return l | r, nil
	case token.XOR:
		return l ^ r, nil
	case token.SHL:
		return l << uint(r&63), nil
	case token.SHR:
		return l >> uint(r&63), nil
	case token.USHR:
		return int64(uint64(l) >> uint(r&63)), nil
	}
	return 0, errAt(line, "unsupported operator %s", op)
}

func (m *machine) evalUnary(x *ast.Unary, f *frame) (Value, error) {
	if x.Op == token.INC || x.Op == token.DEC {
		return m.evalIncDec(x, f)
	}
	v, err := m.eval(x.X, f)
	if err != nil {
		return nil, err
	}
	return unaryOp(x.Op, v, x.P.Line)
}

// unaryOp applies a non-inc/dec prefix operator, shared by both engines.
func unaryOp(op token.Kind, v Value, line int) (Value, error) {
	switch op {
	case token.NOT:
		b, ok := v.(bool)
		if !ok {
			return nil, errAt(line, "! on %s", valueType(v))
		}
		return !b, nil
	case token.SUB:
		if fv, ok := v.(float64); ok {
			return -fv, nil
		}
		if iv, ok := AsInt(v); ok {
			return -iv, nil
		}
		return nil, errAt(line, "- on %s", valueType(v))
	case token.ADD:
		if IsNumeric(v) {
			return v, nil
		}
		return nil, errAt(line, "+ on %s", valueType(v))
	case token.TILDE:
		if iv, ok := AsInt(v); ok {
			return ^iv, nil
		}
		return nil, errAt(line, "~ on %s", valueType(v))
	}
	return nil, errAt(line, "unsupported unary %s", op)
}

func (m *machine) evalIncDec(x *ast.Unary, f *frame) (Value, error) {
	delta := int64(1)
	if x.Op == token.DEC {
		delta = -1
	}
	old, err := m.eval(x.X, f)
	if err != nil {
		return nil, err
	}
	nv, err := incDecValue(x.Op, old, delta, x.P.Line)
	if err != nil {
		return nil, err
	}
	if err := m.store(x.X, nv, f); err != nil {
		return nil, err
	}
	if x.Postfix {
		return old, nil
	}
	return nv, nil
}

// incDecValue computes the successor value of ++/--, shared by both engines.
func incDecValue(op token.Kind, old Value, delta int64, line int) (Value, error) {
	switch o := old.(type) {
	case int64:
		return o + delta, nil
	case Char:
		return Char(int64(o) + delta), nil
	case float64:
		return o + float64(delta), nil
	}
	return nil, errAt(line, "%s on %s", op, valueType(old))
}

func (m *machine) evalAssign(x *ast.Assign, f *frame) (Value, error) {
	var v Value
	var err error
	if lit, ok := x.Value.(*ast.ArrayLit); ok {
		v, err = m.evalArrayLit(lit, "int", f)
	} else {
		v, err = m.eval(x.Value, f)
	}
	if err != nil {
		return nil, err
	}
	if x.Op != token.ASSIGN {
		old, err := m.eval(x.Target, f)
		if err != nil {
			return nil, err
		}
		binOp, ok := compoundOp(x.Op)
		if !ok {
			return nil, errAt(x.P.Line, "unsupported compound assignment %s", x.Op)
		}
		v, err = binaryOp(binOp, old, v, x.P.Line)
		if err != nil {
			return nil, err
		}
		v = narrowCompound(old, v)
	}
	if err := m.store(x.Target, v, f); err != nil {
		return nil, err
	}
	return v, nil
}

// compoundOp maps a compound-assignment operator to its binary operator.
func compoundOp(op token.Kind) (token.Kind, bool) {
	switch op {
	case token.ADDASSIGN:
		return token.ADD, true
	case token.SUBASSIGN:
		return token.SUB, true
	case token.MULASSIGN:
		return token.MUL, true
	case token.QUOASSIGN:
		return token.QUO, true
	case token.REMASSIGN:
		return token.REM, true
	case token.ANDASSIGN:
		return token.AND, true
	case token.ORASSIGN:
		return token.OR, true
	case token.XORASSIGN:
		return token.XOR, true
	case token.SHLASSIGN:
		return token.SHL, true
	case token.SHRASSIGN:
		return token.SHR, true
	}
	return op, false
}

// narrowCompound narrows a compound-assignment result back to the target's
// type: Java keeps int (or char) when the old value was integral; we
// approximate that with the dynamic type of the old value. Shared by both
// engines.
func narrowCompound(old, v Value) Value {
	if _, wasInt := AsInt(old); wasInt {
		if _, isF := v.(float64); !isF {
			if iv, ok := AsInt(v); ok {
				if _, wasChar := old.(Char); wasChar {
					return Char(iv)
				}
				return iv
			}
		}
	}
	return v
}

// store writes v into an lvalue expression.
func (m *machine) store(target ast.Expr, v Value, f *frame) error {
	switch t := target.(type) {
	case *ast.Paren:
		return m.store(t.X, v, f)
	case *ast.Ident:
		return f.assign(t.Name, v, t.P.Line)
	case *ast.Index:
		arrv, err := m.eval(t.X, f)
		if err != nil {
			return err
		}
		arr, ok := arrv.(*Array)
		if !ok || arr == nil {
			return errAt(t.P.Line, "array store on %s", valueType(arrv))
		}
		idx, err := m.evalIndex(t.Idx, len(arr.Elems), f)
		if err != nil {
			return err
		}
		arr.Elems[idx] = coerceElem(v, arr.Elem)
		if root, ok := t.X.(*ast.Ident); ok {
			f.trace(t.P.Line, root.Name, arr)
		}
		return nil
	}
	return errAt(target.Pos().Line, "invalid assignment target %T", target)
}

func (m *machine) evalNewArray(x *ast.NewArray, f *frame) (Value, error) {
	if x.Init != nil {
		lit := &ast.ArrayLit{Elems: x.Init, P: x.P}
		return m.evalArrayLit(lit, x.Elem.Name, f)
	}
	if len(x.Dims) == 0 {
		return nil, errAt(x.P.Line, "new array without dimensions")
	}
	sizes := make([]int, len(x.Dims))
	for i, d := range x.Dims {
		v, err := m.eval(d, f)
		if err != nil {
			return nil, err
		}
		n, err := checkArrayDim(v, x.P.Line)
		if err != nil {
			return nil, err
		}
		sizes[i] = n
	}
	return buildArray(x.Elem.Name, sizes, 0), nil
}

// checkArrayDim validates a new-array dimension value, shared by both engines.
func checkArrayDim(v Value, line int) (int, error) {
	n, ok := AsInt(v)
	if !ok {
		return 0, errAt(line, "array size is %s", valueType(v))
	}
	if n < 0 {
		return 0, errAt(line, "NegativeArraySizeException: %d", n)
	}
	if n > 10_000_000 {
		return 0, errAt(line, "OutOfMemoryError: array size %d", n)
	}
	return int(n), nil
}

// buildArray allocates a zero-filled (possibly nested) array.
func buildArray(elem string, sizes []int, level int) *Array {
	arr := &Array{Elem: elem}
	arr.Elems = make([]Value, sizes[level])
	for i := range arr.Elems {
		if level+1 < len(sizes) {
			arr.Elems[i] = buildArray(elem, sizes, level+1)
		} else {
			arr.Elems[i] = zeroValue(elem, 0)
		}
	}
	return arr
}

func castValue(v Value, to ast.Type, line int) (Value, error) {
	if to.Dims > 0 {
		return v, nil
	}
	switch to.Name {
	case "int", "long", "short", "byte":
		switch x := v.(type) {
		case float64:
			return int64(x), nil
		case int64:
			return x, nil
		case Char:
			return int64(x), nil
		}
	case "double", "float":
		if fv, ok := AsFloat(v); ok {
			return fv, nil
		}
	case "char":
		if iv, ok := AsInt(v); ok {
			return Char(iv), nil
		}
	default:
		return v, nil
	}
	return nil, errAt(line, "cannot cast %s to %s", valueType(v), to.Name)
}
