// Package pretty renders AST nodes into a canonical textual form. The
// canonical form is what EPDG node contents and pattern templates are
// compared against: single spaces between tokens, minimal parentheses, and
// stable literal spelling. Two expressions that differ only in redundant
// parentheses or whitespace normalize to the same string.
package pretty

import (
	"strings"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
)

// Expr renders an expression in canonical form.
func Expr(e ast.Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
}

// Stmt renders the "header" of a statement in canonical form: the full text
// for simple statements, and only the controlling expression for compound
// ones (conditions are rendered by the EPDG builder separately).
func Stmt(s ast.Stmt) string {
	switch x := s.(type) {
	case *ast.LocalVarDecl:
		var parts []string
		for _, d := range x.Decls {
			parts = append(parts, declarator(x.Type, d))
		}
		return strings.Join(parts, ", ")
	case *ast.ExprStmt:
		return Expr(x.X)
	case *ast.Return:
		if x.X == nil {
			return "return"
		}
		return "return " + Expr(x.X)
	case *ast.Throw:
		return "throw " + Expr(x.X)
	case *ast.Break:
		if x.Label != "" {
			return "break " + x.Label
		}
		return "break"
	case *ast.Continue:
		if x.Label != "" {
			return "continue " + x.Label
		}
		return "continue"
	case *ast.If:
		return Expr(x.Cond)
	case *ast.While:
		return Expr(x.Cond)
	case *ast.DoWhile:
		return Expr(x.Cond)
	case *ast.For:
		if x.Cond == nil {
			return "true"
		}
		return Expr(x.Cond)
	case *ast.ForEach:
		return x.ElemType.String() + " " + x.Name + " : " + Expr(x.Iterable)
	case *ast.Switch:
		return Expr(x.Tag)
	case *ast.Empty:
		return ""
	case *ast.Block:
		return "{...}"
	}
	return ""
}

// declarator renders one declarator with its type, e.g. "int even = 0".
func declarator(t ast.Type, d ast.Declarator) string {
	typ := t
	typ.Dims += d.ExtraDims
	s := typ.String() + " " + d.Name
	if d.Init != nil {
		s += " = " + Expr(d.Init)
	}
	return s
}

// Declarator renders a single declarator of a declaration.
func Declarator(t ast.Type, d ast.Declarator) string { return declarator(t, d) }

// precedence levels for minimal-parenthesis printing. Higher binds tighter.
func opPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.OR:
		return 3
	case token.XOR:
		return 4
	case token.AND:
		return 5
	case token.EQL, token.NEQ:
		return 6
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return 7
	case token.SHL, token.SHR, token.USHR:
		return 8
	case token.ADD, token.SUB:
		return 9
	case token.MUL, token.QUO, token.REM:
		return 10
	}
	return 0
}

const (
	precAssign  = 0
	precTernary = 1 // rendered with parens when nested under binary
	precUnary   = 11
	precPostfix = 12
	precPrimary = 13
)

func exprPrec(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.Assign:
		return precAssign
	case *ast.Ternary:
		return precTernary
	case *ast.Binary:
		return opPrec(x.Op)
	case *ast.Unary:
		if x.Postfix {
			return precPostfix
		}
		return precUnary
	case *ast.Cast, *ast.InstanceOf:
		return precUnary
	case *ast.Paren:
		return exprPrec(x.X)
	default:
		return precPrimary
	}
}

func writeExpr(sb *strings.Builder, e ast.Expr, minPrec int) {
	if e == nil {
		return
	}
	// Source parentheses are transparent: the canonical form re-derives the
	// minimal parenthesization from precedence alone.
	if paren, ok := e.(*ast.Paren); ok {
		writeExpr(sb, paren.X, minPrec)
		return
	}
	p := exprPrec(e)
	needParen := p < minPrec
	if needParen {
		sb.WriteByte('(')
	}
	switch x := e.(type) {
	case *ast.Ident:
		sb.WriteString(x.Name)
	case *ast.Literal:
		writeLiteral(sb, x)
	case *ast.Binary:
		op := opPrec(x.Op)
		writeExpr(sb, x.L, op)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, x.R, op+1)
	case *ast.Unary:
		if x.Postfix {
			writeExpr(sb, x.X, precPostfix)
			sb.WriteString(x.Op.String())
		} else {
			sb.WriteString(x.Op.String())
			// Avoid "- -x" gluing into "--x".
			if u, ok := x.X.(*ast.Unary); ok && !u.Postfix &&
				(u.Op == x.Op || (x.Op == token.SUB && u.Op == token.DEC) || (x.Op == token.ADD && u.Op == token.INC)) {
				sb.WriteByte(' ')
			}
			writeExpr(sb, x.X, precUnary)
		}
	case *ast.Assign:
		writeExpr(sb, x.Target, precUnary)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, x.Value, precAssign)
	case *ast.Ternary:
		writeExpr(sb, x.Cond, precTernary+1)
		sb.WriteString(" ? ")
		writeExpr(sb, x.Then, precAssign)
		sb.WriteString(" : ")
		writeExpr(sb, x.Else, precAssign)
	case *ast.Call:
		if x.Recv != nil {
			writeExpr(sb, x.Recv, precPostfix)
			sb.WriteByte('.')
		}
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, precAssign)
		}
		sb.WriteByte(')')
	case *ast.FieldAccess:
		writeExpr(sb, x.X, precPostfix)
		sb.WriteByte('.')
		sb.WriteString(x.Name)
	case *ast.Index:
		writeExpr(sb, x.X, precPostfix)
		sb.WriteByte('[')
		writeExpr(sb, x.Idx, precAssign)
		sb.WriteByte(']')
	case *ast.NewArray:
		sb.WriteString("new ")
		sb.WriteString(x.Elem.Name)
		for _, d := range x.Dims {
			sb.WriteByte('[')
			writeExpr(sb, d, precAssign)
			sb.WriteByte(']')
		}
		if len(x.Dims) == 0 {
			sb.WriteString("[]")
		}
		if x.Init != nil {
			sb.WriteByte('{')
			for i, el := range x.Init {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeExpr(sb, el, precAssign)
			}
			sb.WriteByte('}')
		}
	case *ast.ArrayLit:
		sb.WriteByte('{')
		for i, el := range x.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, el, precAssign)
		}
		sb.WriteByte('}')
	case *ast.NewObject:
		sb.WriteString("new ")
		sb.WriteString(x.Class)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, precAssign)
		}
		sb.WriteByte(')')
	case *ast.Cast:
		sb.WriteByte('(')
		sb.WriteString(x.To.String())
		sb.WriteString(") ")
		writeExpr(sb, x.X, precUnary)
	case *ast.InstanceOf:
		writeExpr(sb, x.X, precUnary)
		sb.WriteString(" instanceof ")
		sb.WriteString(x.To.String())
	}
	if needParen {
		sb.WriteByte(')')
	}
}

func writeLiteral(sb *strings.Builder, x *ast.Literal) {
	switch x.Kind {
	case token.STRING:
		sb.WriteByte('"')
		sb.WriteString(escape(x.Text))
		sb.WriteByte('"')
	case token.CHAR:
		sb.WriteByte('\'')
		sb.WriteString(escape(x.Text))
		sb.WriteByte('\'')
	case token.TRUE:
		sb.WriteString("true")
	case token.FALSE:
		sb.WriteString("false")
	case token.NULL:
		sb.WriteString("null")
	case token.LONG:
		sb.WriteString(x.Text)
		sb.WriteByte('L')
	default:
		sb.WriteString(x.Text)
	}
}

// escaper re-escapes literal text. Every old string is one byte, so Replace
// returns text with nothing to escape without allocating.
var escaper = strings.NewReplacer("\\", `\\`, "\"", `\"`, "'", `\'`, "\n", `\n`, "\t", `\t`, "\r", `\r`)

func escape(s string) string { return escaper.Replace(s) }

// Tokens splits a canonical rendering into its lexical tokens. It is used by
// containment constraints and by approximate matching.
func Tokens(canonical string) []string {
	var toks []string
	for tok, i := NextToken(canonical, 0); tok != ""; tok, i = NextToken(canonical, i) {
		toks = append(toks, tok)
	}
	return toks
}

// NextToken returns the first token of canonical at or after byte offset i
// and the offset just past it, or "" when no token remains. Looping over it
// yields Tokens without building the slice.
func NextToken(canonical string, i int) (tok string, next int) {
	for i < len(canonical) && canonical[i] == ' ' {
		i++
	}
	if i >= len(canonical) {
		return "", i
	}
	c := canonical[i]
	switch {
	case isWordByte(c):
		j := i
		for j < len(canonical) && isWordByte(canonical[j]) {
			j++
		}
		return canonical[i:j], j
	case c == '"' || c == '\'':
		j := i + 1
		for j < len(canonical) {
			if canonical[j] == '\\' {
				j += 2
				continue
			}
			if canonical[j] == c {
				j++
				break
			}
			j++
		}
		// An escape at the very end steps past the string; clamp as the
		// slice expression below requires.
		if j > len(canonical) {
			j = len(canonical)
		}
		return canonical[i:j], j
	}
	// Multi-byte operators.
	for _, op := range opsByFirst[c] {
		if strings.HasPrefix(canonical[i:], op) {
			return op, i + len(op)
		}
	}
	if c < 0x80 {
		return canonical[i : i+1], i + 1
	}
	// A byte outside ASCII becomes the UTF-8 encoding of the rune with that
	// value, so each non-ASCII byte of an identifier is a token of its own.
	return string(rune(c)), i + 1
}

var multiOps = []string{
	"<<=", ">>=", ">>>", "...", "==", "!=", "<=", ">=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "<<", ">>",
}

// opsByFirst lists multiOps by first byte, each list in multiOps order, so
// a token is tried only against the operators it can start.
var opsByFirst = func() (t [256][]string) {
	for _, op := range multiOps {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

func isWordByte(c byte) bool {
	return c == '_' || c == '$' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
