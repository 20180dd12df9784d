package lexer_test

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"semfeed/internal/java/token"
)

// refLexer scans a Java source buffer into tokens rune by rune: it decodes
// every rune, builds every identifier and number in a strings.Builder and
// finds operators through a map. It is the oracle that FuzzLexer holds
// lexer.Lexer to, token by token and on Errors().
type refLexer struct {
	src    string
	off    int // byte offset of next rune
	line   int
	col    int
	errors []error
}

// newRefLexer returns a refLexer over src.
func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

// Errors returns the scan errors accumulated so far.
func (l *refLexer) Errors() []error { return l.errors }

func (l *refLexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *refLexer) peek2() rune {
	if l.off >= len(l.src) {
		return 0
	}
	_, w := utf8.DecodeRuneInString(l.src[l.off:])
	if l.off+w >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+w:])
	return r
}

func (l *refLexer) next() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) pos() token.Pos {
	return token.Pos{Offset: l.off, Line: l.line, Col: l.col}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// skipSpaceAndComments advances past whitespace, // and /* */ comments.
func (l *refLexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.next()
		case r == '/' && l.peek2() == '/':
			for l.peek() != 0 && l.peek() != '\n' {
				l.next()
			}
		case r == '/' && l.peek2() == '*':
			start := l.pos()
			l.next()
			l.next()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.next()
					l.next()
					closed = true
					break
				}
				l.next()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *refLexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	r := l.peek()
	switch {
	case r == 0:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isIdentStart(r):
		return l.scanIdent(pos)
	case isDigit(r):
		return l.scanNumber(pos)
	case r == '.' && isDigit(l.peek2()):
		return l.scanNumber(pos)
	case r == '"':
		return l.scanString(pos)
	case r == '\'':
		return l.scanChar(pos)
	}
	return l.scanOperator(pos)
}

// All scans the whole source and returns every token including the final EOF.
func (l *refLexer) All() []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func (l *refLexer) scanIdent(pos token.Pos) token.Token {
	var sb strings.Builder
	for isIdentPart(l.peek()) {
		sb.WriteRune(l.next())
	}
	lit := sb.String()
	kind := token.Lookup(lit)
	if kind != token.IDENT {
		return token.Token{Kind: kind, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

func (l *refLexer) scanNumber(pos token.Pos) token.Token {
	var sb strings.Builder
	kind := token.INT
	// Hex/binary/octal prefixes.
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		sb.WriteRune(l.next())
		sb.WriteRune(l.next())
		for isHexDigit(l.peek()) || l.peek() == '_' {
			sb.WriteRune(l.next())
		}
	} else if l.peek() == '0' && (l.peek2() == 'b' || l.peek2() == 'B') {
		sb.WriteRune(l.next())
		sb.WriteRune(l.next())
		for l.peek() == '0' || l.peek() == '1' || l.peek() == '_' {
			sb.WriteRune(l.next())
		}
	} else {
		for isDigit(l.peek()) || l.peek() == '_' {
			sb.WriteRune(l.next())
		}
		if l.peek() == '.' && isDigit(l.peek2()) {
			kind = token.FLOAT
			sb.WriteRune(l.next())
			for isDigit(l.peek()) || l.peek() == '_' {
				sb.WriteRune(l.next())
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := *l
			var exp strings.Builder
			exp.WriteRune(l.next())
			if l.peek() == '+' || l.peek() == '-' {
				exp.WriteRune(l.next())
			}
			if isDigit(l.peek()) {
				kind = token.FLOAT
				for isDigit(l.peek()) {
					exp.WriteRune(l.next())
				}
				sb.WriteString(exp.String())
			} else {
				*l = save // not an exponent after all (e.g. "1e" then ident)
			}
		}
	}
	switch l.peek() {
	case 'l', 'L':
		l.next()
		if kind == token.INT {
			kind = token.LONG
		}
	case 'f', 'F', 'd', 'D':
		l.next()
		kind = token.FLOAT
	}
	return token.Token{Kind: kind, Lit: strings.ReplaceAll(sb.String(), "_", ""), Pos: pos}
}

func isHexDigit(r rune) bool {
	return isDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (l *refLexer) scanString(pos token.Pos) token.Token {
	l.next() // opening quote
	var sb strings.Builder
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		l.next()
		if r == '"' {
			break
		}
		if r == '\\' {
			sb.WriteRune(l.unescape(pos))
			continue
		}
		sb.WriteRune(r)
	}
	return token.Token{Kind: token.STRING, Lit: sb.String(), Pos: pos}
}

func (l *refLexer) unescape(pos token.Pos) rune {
	e := l.next()
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case '0':
		return 0
	case '\\', '\'', '"':
		return e
	case 'u':
		var v rune
		for i := 0; i < 4; i++ {
			d := l.peek()
			if !isHexDigit(d) {
				l.errorf(pos, "invalid unicode escape")
				return utf8.RuneError
			}
			l.next()
			v = v*16 + hexVal(d)
		}
		return v
	default:
		l.errorf(pos, "invalid escape sequence \\%c", e)
		return e
	}
}

func hexVal(r rune) rune {
	switch {
	case r >= '0' && r <= '9':
		return r - '0'
	case r >= 'a' && r <= 'f':
		return r - 'a' + 10
	default:
		return r - 'A' + 10
	}
}

func (l *refLexer) scanChar(pos token.Pos) token.Token {
	l.next() // opening quote
	var v rune
	r := l.peek()
	if r == 0 || r == '\n' {
		l.errorf(pos, "unterminated char literal")
		return token.Token{Kind: token.CHAR, Lit: "", Pos: pos}
	}
	l.next()
	if r == '\\' {
		v = l.unescape(pos)
	} else {
		v = r
	}
	if l.peek() == '\'' {
		l.next()
	} else {
		l.errorf(pos, "unterminated char literal")
	}
	return token.Token{Kind: token.CHAR, Lit: string(v), Pos: pos}
}

// operator table ordered longest-first per leading rune.
var operators = map[rune][]struct {
	text string
	kind token.Kind
}{
	'=': {{"==", token.EQL}, {"=", token.ASSIGN}},
	'+': {{"+=", token.ADDASSIGN}, {"++", token.INC}, {"+", token.ADD}},
	'-': {{"-=", token.SUBASSIGN}, {"--", token.DEC}, {"-", token.SUB}},
	'*': {{"*=", token.MULASSIGN}, {"*", token.MUL}},
	'/': {{"/=", token.QUOASSIGN}, {"/", token.QUO}},
	'%': {{"%=", token.REMASSIGN}, {"%", token.REM}},
	'!': {{"!=", token.NEQ}, {"!", token.NOT}},
	'<': {{"<<=", token.SHLASSIGN}, {"<<", token.SHL}, {"<=", token.LEQ}, {"<", token.LSS}},
	'>': {{">>=", token.SHRASSIGN}, {">>>", token.USHR}, {">>", token.SHR}, {">=", token.GEQ}, {">", token.GTR}},
	'&': {{"&&", token.LAND}, {"&=", token.ANDASSIGN}, {"&", token.AND}},
	'|': {{"||", token.LOR}, {"|=", token.ORASSIGN}, {"|", token.OR}},
	'^': {{"^=", token.XORASSIGN}, {"^", token.XOR}},
	'~': {{"~", token.TILDE}},
	'?': {{"?", token.QUESTION}},
	':': {{":", token.COLON}},
	';': {{";", token.SEMICOLON}},
	',': {{",", token.COMMA}},
	'.': {{"...", token.ELLIPSIS}, {".", token.PERIOD}},
	'(': {{"(", token.LPAREN}},
	')': {{")", token.RPAREN}},
	'{': {{"{", token.LBRACE}},
	'}': {{"}", token.RBRACE}},
	'[': {{"[", token.LBRACK}},
	']': {{"]", token.RBRACK}},
	'@': {{"@", token.AT}},
}

func (l *refLexer) scanOperator(pos token.Pos) token.Token {
	r := l.peek()
	cands, ok := operators[r]
	if !ok {
		l.next()
		l.errorf(pos, "illegal character %q", r)
		return token.Token{Kind: token.ILLEGAL, Lit: string(r), Pos: pos}
	}
	rest := l.src[l.off:]
	for _, c := range cands {
		if strings.HasPrefix(rest, c.text) {
			for range c.text {
				l.next()
			}
			return token.Token{Kind: c.kind, Lit: c.text, Pos: pos}
		}
	}
	// Unreachable: every candidate list ends with its single-rune form.
	l.next()
	return token.Token{Kind: token.ILLEGAL, Lit: string(r), Pos: pos}
}
