// Package lexer implements a scanner for the Java subset. It produces the
// token stream consumed by the parser and skips comments and annotations.
//
// The scanner works on bytes and decodes a rune only where the source is not
// ASCII, so Unicode letters still form identifiers and columns still count
// runes. Identifier, keyword, number and escape-free string literals are
// substrings of the source: a token's Lit keeps the source alive for as long
// as it is held.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"semfeed/internal/java/token"
)

// Lexer scans a Java source buffer into tokens.
type Lexer struct {
	src    string
	off    int // byte offset of next rune
	line   int
	col    int
	errors []error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the scan errors accumulated so far.
func (l *Lexer) Errors() []error { return l.errors }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// decode returns the rune at the read offset and its width, decoding only
// non-ASCII bytes, or 0, 0 at the end of the source.
func (l *Lexer) decode() (rune, int) {
	if l.off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.off:])
}

// peek returns the rune at the read offset, or 0 at the end of the source.
// A NUL byte also reads as 0, so it ends the token stream.
func (l *Lexer) peek() rune {
	r, _ := l.decode()
	return r
}

func (l *Lexer) peek2() rune {
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

func (l *Lexer) next() rune {
	r, w := l.decode()
	l.off += w
	if w == 0 {
		return 0
	}
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Offset: l.off, Line: l.line, Col: l.col}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '_' || r == '$'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return isIdentStart(r) || isDigit(r)
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// skipSpaceAndComments advances past whitespace, // and /* */ comments.
func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
			l.col++
		case c == '\n':
			l.off++
			l.line++
			l.col = 1
		case c == '/' && l.peek2() == '/':
			for l.peek() != 0 && l.peek() != '\n' {
				l.next()
			}
		case c == '/' && l.peek2() == '*':
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
func (l *Lexer) Next() token.Token {
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

// maxPreallocTokens caps All's first allocation (48 bytes a token on 64-bit),
// so a long comment-only source does not reserve memory in proportion to its
// bytes; a source with more tokens grows the slice as append does.
const maxPreallocTokens = 1 << 14

// All scans the whole source and returns every token including the final EOF.
func (l *Lexer) All() []token.Token {
	// Submissions run 2.3 to 3.6 source bytes a token, so half the byte
	// count holds every token of one in a single allocation.
	out := make([]token.Token, 0, min(len(l.src)/2+1, maxPreallocTokens))
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for r, w := l.decode(); w > 0 && isIdentPart(r); r, w = l.decode() {
		l.off += w
		l.col++
	}
	lit := l.src[start:l.off]
	return token.Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
}

// scanNumber scans a numeric literal. Its text is ASCII, so the literal is
// the source slice with digit separators removed and the type suffix left
// off.
func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	kind := token.INT
	// Hex/binary/octal prefixes.
	if l.at(0, '0') && (l.at(1, 'x') || l.at(1, 'X')) {
		l.off += 2
		l.skipWhile(func(c byte) bool { return isHexDigit(rune(c)) || c == '_' })
	} else if l.at(0, '0') && (l.at(1, 'b') || l.at(1, 'B')) {
		l.off += 2
		l.skipWhile(func(c byte) bool { return c == '0' || c == '1' || c == '_' })
	} else {
		l.skipWhile(isDecimalOrSep)
		if l.at(0, '.') && l.off+1 < len(l.src) && isDigit(rune(l.src[l.off+1])) {
			kind = token.FLOAT
			l.off++
			l.skipWhile(isDecimalOrSep)
		}
		if l.at(0, 'e') || l.at(0, 'E') {
			// Not an exponent without digits (e.g. "1e" then ident).
			exp := l.off + 1
			if exp < len(l.src) && (l.src[exp] == '+' || l.src[exp] == '-') {
				exp++
			}
			if exp < len(l.src) && isDigit(rune(l.src[exp])) {
				kind = token.FLOAT
				l.off = exp
				l.skipWhile(func(c byte) bool { return isDigit(rune(c)) })
			}
		}
	}
	lit := l.src[start:l.off]
	if strings.IndexByte(lit, '_') >= 0 {
		lit = strings.ReplaceAll(lit, "_", "")
	}
	if l.off < len(l.src) {
		switch l.src[l.off] {
		case 'l', 'L':
			l.off++
			if kind == token.INT {
				kind = token.LONG
			}
		case 'f', 'F', 'd', 'D':
			l.off++
			kind = token.FLOAT
		}
	}
	l.col += l.off - start
	return token.Token{Kind: kind, Lit: lit, Pos: pos}
}

func isDecimalOrSep(c byte) bool { return isDigit(rune(c)) || c == '_' }

// at reports whether the byte i past the read offset is c.
func (l *Lexer) at(i int, c byte) bool {
	return l.off+i < len(l.src) && l.src[l.off+i] == c
}

// skipWhile advances the read offset over ASCII bytes that satisfy ok; the
// caller moves the column.
func (l *Lexer) skipWhile(ok func(byte) bool) {
	for l.off < len(l.src) && ok(l.src[l.off]) {
		l.off++
	}
}

func isHexDigit(r rune) bool {
	return isDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// scanString scans a string literal. A literal of ASCII text without escapes
// is its source slice; any other is decoded rune by rune, so escapes are
// resolved and invalid UTF-8 reads as utf8.RuneError.
func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.next() // opening quote
	start := l.off
	end := start
	for end < len(l.src) {
		c := l.src[end]
		if c == '"' {
			l.off = end + 1
			l.col += end + 1 - start
			return token.Token{Kind: token.STRING, Lit: l.src[start:end], Pos: pos}
		}
		if c == '\\' || c == '\n' || c == 0 || c >= utf8.RuneSelf {
			break
		}
		end++
	}
	var sb strings.Builder
	sb.WriteString(l.src[start:end])
	l.off = end
	l.col += end - start
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

func (l *Lexer) unescape(pos token.Pos) rune {
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

func (l *Lexer) scanChar(pos token.Pos) token.Token {
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

type operator struct {
	text string
	kind token.Kind
}

// operators lists the operators by leading byte, longest first.
var operators = [utf8.RuneSelf][]operator{
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

// scanOperator scans an operator or reports an illegal character. It is
// called only before a non-NUL byte.
func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	if c := l.src[l.off]; c < utf8.RuneSelf {
		rest := l.src[l.off:]
		for _, op := range operators[c] {
			if strings.HasPrefix(rest, op.text) {
				l.off += len(op.text)
				l.col += len(op.text)
				return token.Token{Kind: op.kind, Lit: op.text, Pos: pos}
			}
		}
	}
	r := l.next()
	l.errorf(pos, "illegal character %q", r)
	return token.Token{Kind: token.ILLEGAL, Lit: string(r), Pos: pos}
}
