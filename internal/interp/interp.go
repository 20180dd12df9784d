package interp

import (
	"errors"
	"fmt"
	"strings"

	"semfeed/internal/java/ast"
	"semfeed/internal/obs"
)

// Default execution limits. Exported so tests and callers can reason about
// the budget they inherit when Config leaves the fields zero.
const (
	// DefaultMaxSteps is the step budget of a run when Config.MaxSteps is 0.
	DefaultMaxSteps = 2_000_000
	// DefaultMaxDepth is the call-depth limit when Config.MaxDepth is 0.
	DefaultMaxDepth = 2_000
	// stepPollMask: the Done channel is polled every stepPollMask+1 steps,
	// keeping cancellation a cheap counter test in the dispatch loop.
	stepPollMask = 1023
)

// ErrStepLimit is returned when execution exceeds the step budget; in the
// grading harness it diagnoses infinite loops. The returned error is a
// *RuntimeError carrying the line of the last executed node and unwraps to
// this sentinel, so errors.Is(err, ErrStepLimit) keeps working.
var ErrStepLimit = errors.New("step limit exceeded (possible infinite loop)")

// ErrCanceled is returned when Config.Done is closed mid-run. Like
// ErrStepLimit it surfaces as a *RuntimeError that unwraps to this sentinel.
var ErrCanceled = errors.New("execution canceled")

// RuntimeError is a Java runtime failure (division by zero, array index out
// of bounds, null dereference, missing input, ...).
type RuntimeError struct {
	Msg  string
	Line int
	Err  error // optional sentinel cause (ErrStepLimit, ErrCanceled)
}

// Error renders the failure with its source line.
func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("runtime error at line %d: %s", e.Line, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// Unwrap exposes the sentinel cause so errors.Is matches ErrStepLimit and
// ErrCanceled through the line-carrying wrapper.
func (e *RuntimeError) Unwrap() error { return e.Err }

// stepLimitErr reports fuel exhaustion at the line of the last executed node.
func stepLimitErr(line int) error {
	return &RuntimeError{Msg: ErrStepLimit.Error(), Line: line, Err: ErrStepLimit}
}

// canceledErr reports a Done-channel cancellation at the current node.
func canceledErr(line int) error {
	return &RuntimeError{Msg: ErrCanceled.Error(), Line: line, Err: ErrCanceled}
}

// Tracer observes variable writes during execution; the CLARA-style baseline
// uses it to collect variable traces.
type Tracer interface {
	// OnAssign is invoked after each variable write with the method, source
	// line, variable name and new value.
	OnAssign(method string, line int, name string, v Value)
}

// Config configures a run. The zero value reads empty input, has no virtual
// files and uses the default step budget.
type Config struct {
	Stdin    string
	Files    map[string]string // virtual file system for new Scanner(new File(...))
	MaxSteps int               // default DefaultMaxSteps
	MaxDepth int               // default DefaultMaxDepth frames
	Tracer   Tracer
	// Done, when non-nil, cancels the run: the dispatch loop polls it every
	// stepPollMask+1 steps and aborts with ErrCanceled. Wire ctx.Done() here
	// to give interpreter runs the same deadline behavior as the matcher.
	Done <-chan struct{}
}

func (c Config) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return DefaultMaxSteps
}

func (c Config) maxDepth() int {
	if c.MaxDepth > 0 {
		return c.MaxDepth
	}
	return DefaultMaxDepth
}

// Result is the outcome of a run. A run that fails with a runtime error
// still has one, returned next to the error: Stdout is the output printed
// before the failure, Steps counts every step taken (a run that exhausts
// its budget reports MaxSteps+1) and Return is nil.
type Result struct {
	Stdout string
	Return Value
	// Steps counts the steps charged against the budget. A run the compiled
	// engine fast-forwards reports the Steps of the full run.
	Steps int
	// Skipped is the part of Steps that loop fast-forward charged without
	// executing, for a loop whose state recurs whole or but for drifting
	// counters (see Program.Run); Steps - Skipped is the work done. Always
	// 0 on the tree-walker.
	Skipped int
}

// Run executes the entry method of the unit with the given arguments on the
// compiled engine: the AST is lowered to closure code (see Compile) and then
// dispatched. Callers that execute the same unit many times should Compile
// once (or use a Cache) and call Program.Run per execution. Run returns a
// Result on failure too (see Result); check the error first.
func Run(unit *ast.CompilationUnit, entry string, args []Value, cfg Config) (*Result, error) {
	return Compile(unit).Run(entry, args, cfg)
}

// RunTreeWalk executes the entry method with the original tree-walking
// evaluator. It is a test oracle, not a production engine: the differential
// fuzzer and the parity corpus assert the compiled engine agrees with it on
// value, output, error and step count, failing runs included (a failing run
// returns its Result next to the error, as Run does). Grading uses Run /
// Program.Run.
func RunTreeWalk(unit *ast.CompilationUnit, entry string, args []Value, cfg Config) (res *Result, err error) {
	obs.InterpRunsTotal.Inc()
	m := &machine{
		cfg:     cfg,
		budget:  cfg.maxSteps(),
		done:    cfg.Done,
		methods: map[string]*ast.Method{},
		globals: map[string]Value{},
	}
	defer func() {
		if err != nil {
			res = &Result{Stdout: m.out.String(), Steps: m.steps}
		}
		obs.InterpStepsTotal.Add(int64(m.steps))
		if errors.Is(err, ErrStepLimit) {
			obs.InterpStepLimitTotal.Inc()
		}
	}()
	for _, meth := range unit.AllMethods() {
		if _, dup := m.methods[meth.Name]; !dup && meth.Body != nil {
			m.methods[meth.Name] = meth
		}
	}
	// Initialize class fields as globals, in declaration order.
	for _, cls := range unit.Classes {
		for _, f := range cls.Fields {
			for _, d := range f.Decl.Decls {
				var v Value
				if d.Init != nil {
					fr := &frame{machine: m, method: "<init>"}
					fr.push()
					var err error
					v, err = m.eval(d.Init, fr)
					if err != nil {
						return nil, err
					}
				} else {
					v = zeroValue(f.Decl.Type.Name, f.Decl.Type.Dims+d.ExtraDims)
				}
				m.globals[d.Name] = v
			}
		}
	}
	target, ok := m.methods[entry]
	if !ok {
		return nil, &RuntimeError{Msg: fmt.Sprintf("no method %q", entry)}
	}
	ret, err := m.invoke(target, args, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Stdout: m.out.String(), Return: ret, Steps: m.steps}, nil
}

type machine struct {
	cfg     Config
	budget  int
	done    <-chan struct{}
	methods map[string]*ast.Method
	globals map[string]Value
	out     strings.Builder
	steps   int
}

func (m *machine) step(line int) error {
	m.steps++
	if m.steps > m.budget {
		return stepLimitErr(line)
	}
	if m.done != nil && m.steps&stepPollMask == 0 {
		select {
		case <-m.done:
			return canceledErr(line)
		default:
		}
	}
	return nil
}

func errAt(line int, format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Line: line}
}

// frame is one activation record with a stack of block scopes.
type frame struct {
	machine *machine
	method  string
	depth   int
	scopes  []map[string]Value
}

func (f *frame) push() { f.scopes = append(f.scopes, map[string]Value{}) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) define(name string, v Value) {
	f.scopes[len(f.scopes)-1][name] = v
}

func (f *frame) lookup(name string) (Value, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v, true
		}
	}
	v, ok := f.machine.globals[name]
	return v, ok
}

func (f *frame) assign(name string, v Value, line int) error {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if _, ok := f.scopes[i][name]; ok {
			f.scopes[i][name] = v
			f.trace(line, name, v)
			return nil
		}
	}
	if _, ok := f.machine.globals[name]; ok {
		f.machine.globals[name] = v
		f.trace(line, name, v)
		return nil
	}
	return errAt(line, "cannot resolve variable %s", name)
}

func (f *frame) trace(line int, name string, v Value) {
	if f.machine.cfg.Tracer != nil {
		f.machine.cfg.Tracer.OnAssign(f.method, line, name, v)
	}
}

// invoke runs a method body in a fresh frame.
func (m *machine) invoke(meth *ast.Method, args []Value, depth int) (Value, error) {
	if depth > m.cfg.maxDepth() {
		return nil, &RuntimeError{Msg: "stack overflow", Line: meth.P.Line}
	}
	if len(args) != len(meth.Params) {
		return nil, errAt(meth.P.Line, "method %s expects %d arguments, got %d", meth.Name, len(meth.Params), len(args))
	}
	f := &frame{machine: m, method: meth.Name, depth: depth}
	f.push()
	for i, p := range meth.Params {
		f.define(p.Name, args[i])
		f.trace(p.P.Line, p.Name, args[i])
	}
	sig, ret, err := m.execStmt(meth.Body, f)
	if err != nil {
		return nil, err
	}
	if sig == sigReturn {
		return ret, nil
	}
	return nil, nil
}

type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

func (m *machine) execStmt(s ast.Stmt, f *frame) (signal, Value, error) {
	if err := m.step(s.Pos().Line); err != nil {
		return sigNone, nil, err
	}
	switch x := s.(type) {
	case *ast.Block:
		f.push()
		defer f.pop()
		for _, st := range x.Stmts {
			sig, v, err := m.execStmt(st, f)
			if err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		return sigNone, nil, nil

	case *ast.Empty:
		return sigNone, nil, nil

	case *ast.LocalVarDecl:
		for _, d := range x.Decls {
			var v Value
			if d.Init != nil {
				var err error
				v, err = m.evalInit(d.Init, x.Type, d, f)
				if err != nil {
					return sigNone, nil, err
				}
				v = coerceDecl(v, x.Type, d)
			} else {
				v = zeroValue(x.Type.Name, x.Type.Dims+d.ExtraDims)
			}
			f.define(d.Name, v)
			f.trace(d.P.Line, d.Name, v)
		}
		return sigNone, nil, nil

	case *ast.ExprStmt:
		_, err := m.eval(x.X, f)
		return sigNone, nil, err

	case *ast.If:
		c, err := m.evalBool(x.Cond, f)
		if err != nil {
			return sigNone, nil, err
		}
		if c {
			return m.execStmt(x.Then, f)
		}
		if x.Else != nil {
			return m.execStmt(x.Else, f)
		}
		return sigNone, nil, nil

	case *ast.While:
		for {
			c, err := m.evalBool(x.Cond, f)
			if err != nil {
				return sigNone, nil, err
			}
			if !c {
				return sigNone, nil, nil
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			switch sig {
			case sigBreak:
				return sigNone, nil, nil
			case sigReturn:
				return sig, v, nil
			}
		}

	case *ast.DoWhile:
		for {
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			switch sig {
			case sigBreak:
				return sigNone, nil, nil
			case sigReturn:
				return sig, v, nil
			}
			c, err := m.evalBool(x.Cond, f)
			if err != nil {
				return sigNone, nil, err
			}
			if !c {
				return sigNone, nil, nil
			}
		}

	case *ast.For:
		f.push()
		defer f.pop()
		for _, init := range x.Init {
			if sig, v, err := m.execStmt(init, f); err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		for {
			if x.Cond != nil {
				c, err := m.evalBool(x.Cond, f)
				if err != nil {
					return sigNone, nil, err
				}
				if !c {
					return sigNone, nil, nil
				}
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			if sig == sigBreak {
				return sigNone, nil, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
			for _, u := range x.Update {
				if err := m.step(x.P.Line); err != nil {
					return sigNone, nil, err
				}
				if _, err := m.eval(u, f); err != nil {
					return sigNone, nil, err
				}
			}
		}

	case *ast.ForEach:
		it, err := m.eval(x.Iterable, f)
		if err != nil {
			return sigNone, nil, err
		}
		arr, err := iterableArray(it, x.P.Line)
		if err != nil {
			return sigNone, nil, err
		}
		f.push()
		defer f.pop()
		f.define(x.Name, zeroValue(x.ElemType.Name, x.ElemType.Dims))
		for _, el := range arr.Elems {
			if err := f.assign(x.Name, el, x.P.Line); err != nil {
				return sigNone, nil, err
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			if sig == sigBreak {
				return sigNone, nil, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
		}
		return sigNone, nil, nil

	case *ast.Switch:
		tag, err := m.eval(x.Tag, f)
		if err != nil {
			return sigNone, nil, err
		}
		matched := false
		for _, c := range x.Cases {
			if !matched {
				if c.Exprs == nil {
					matched = true
				} else {
					for _, ce := range c.Exprs {
						cv, err := m.eval(ce, f)
						if err != nil {
							return sigNone, nil, err
						}
						if looseEqual(tag, cv) {
							matched = true
							break
						}
					}
				}
			}
			if matched { // fall through until break
				for _, st := range c.Stmts {
					sig, v, err := m.execStmt(st, f)
					if err != nil {
						return sigNone, nil, err
					}
					if sig == sigBreak {
						return sigNone, nil, nil
					}
					if sig != sigNone {
						return sig, v, nil
					}
				}
			}
		}
		return sigNone, nil, nil

	case *ast.Break:
		if x.Label != "" {
			// Labeled jumps are outside the subset; fail loudly rather than
			// silently breaking the innermost loop only.
			return sigNone, nil, errAt(x.P.Line, "labeled break is not supported")
		}
		return sigBreak, nil, nil
	case *ast.Continue:
		if x.Label != "" {
			return sigNone, nil, errAt(x.P.Line, "labeled continue is not supported")
		}
		return sigContinue, nil, nil
	case *ast.Return:
		if x.X == nil {
			return sigReturn, nil, nil
		}
		v, err := m.eval(x.X, f)
		return sigReturn, v, err
	case *ast.Throw:
		v, err := m.eval(x.X, f)
		if err != nil {
			return sigNone, nil, err
		}
		return sigNone, nil, errAt(x.P.Line, "exception thrown: %s", Format(v))
	}
	return sigNone, nil, errAt(s.Pos().Line, "unsupported statement %T", s)
}

// iterableArray converts a for-each iterable value to an array: arrays pass
// through, strings iterate as char arrays, everything else is an error.
func iterableArray(it Value, line int) (*Array, error) {
	if arr, ok := it.(*Array); ok {
		return arr, nil
	}
	if s, isStr := it.(string); isStr {
		arr := &Array{Elem: "char"}
		for _, r := range s {
			arr.Elems = append(arr.Elems, Char(r))
		}
		return arr, nil
	}
	return nil, errAt(line, "for-each over non-array %s", valueType(it))
}

// evalInit evaluates a declarator initializer, allowing bare array literals.
func (m *machine) evalInit(init ast.Expr, t ast.Type, d ast.Declarator, f *frame) (Value, error) {
	if lit, ok := init.(*ast.ArrayLit); ok {
		return m.evalArrayLit(lit, t.Name, f)
	}
	return m.eval(init, f)
}

func (m *machine) evalArrayLit(lit *ast.ArrayLit, elem string, f *frame) (Value, error) {
	arr := &Array{Elem: elem}
	for _, el := range lit.Elems {
		var v Value
		var err error
		if inner, ok := el.(*ast.ArrayLit); ok {
			v, err = m.evalArrayLit(inner, elem, f)
		} else {
			v, err = m.eval(el, f)
		}
		if err != nil {
			return nil, err
		}
		arr.Elems = append(arr.Elems, coerceElem(v, elem))
	}
	return arr, nil
}

// coerceDecl applies Java's implicit widening/narrowing at declarations:
// double d = 1 stores 1.0; int i = 'a' stores 97.
func coerceDecl(v Value, t ast.Type, d ast.Declarator) Value {
	if t.Dims+d.ExtraDims > 0 {
		return v
	}
	return coerceElem(v, t.Name)
}

func coerceElem(v Value, typeName string) Value {
	switch typeName {
	case "double", "float":
		if fv, ok := AsFloat(v); ok {
			return fv
		}
	case "int", "long", "byte", "short":
		if iv, ok := AsInt(v); ok {
			return iv
		}
	case "char":
		if iv, ok := AsInt(v); ok {
			return Char(iv)
		}
	}
	return v
}

// looseEqual is the switch case test: numbers by value, anything else by
// ==. Two integral operands compare exactly, as in Java; a floating operand
// promotes both to double.
func looseEqual(a, b Value) bool {
	if ai, aok := AsInt(a); aok {
		if bi, bok := AsInt(b); bok {
			return ai == bi
		}
	}
	if af, aok := AsFloat(a); aok {
		if bf, bok := AsFloat(b); bok {
			return af == bf
		}
	}
	return a == b
}

// refEqual implements Java's == operator: numeric comparison for primitives
// (looseEqual's), reference comparison otherwise. Two distinct runtime
// String values are never == (they are not interned), which is exactly the
// classic student bug the string-field-compare pattern teaches about.
func refEqual(a, b Value) bool {
	if IsNumeric(a) {
		return looseEqual(a, b)
	}
	if ab, aok := a.(bool); aok {
		bb, bok := b.(bool)
		return bok && ab == bb
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if _, aok := a.(string); aok {
		if _, bok := b.(string); bok {
			return false // distinct String objects; use .equals
		}
		return false
	}
	return a == b
}

func (m *machine) evalBool(e ast.Expr, f *frame) (bool, error) {
	v, err := m.eval(e, f)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, errAt(e.Pos().Line, "condition is %s, not boolean", valueType(v))
	}
	return b, nil
}
