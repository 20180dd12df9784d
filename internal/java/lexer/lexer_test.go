package lexer_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"semfeed/internal/assignments"
	"semfeed/internal/java/lexer"
	"semfeed/internal/java/token"
)

func kinds(src string) []token.Kind {
	toks := lexer.New(src).All()
	out := make([]token.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func lits(src string) []string {
	toks := lexer.New(src).All()
	var out []string
	for _, t := range toks {
		if t.Kind != token.EOF {
			out = append(out, t.Lit)
		}
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds("while int foo if elseish")
	want := []token.Kind{token.WHILE, token.INTKW, token.IDENT, token.IF, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperatorsLongestMatch(t *testing.T) {
	cases := map[string]token.Kind{
		"<=": token.LEQ, "<<": token.SHL, "<<=": token.SHLASSIGN,
		">>>": token.USHR, ">=": token.GEQ, "==": token.EQL,
		"++": token.INC, "+=": token.ADDASSIGN, "&&": token.LAND,
		"%=": token.REMASSIGN, "...": token.ELLIPSIS,
	}
	for src, want := range cases {
		got := kinds(src)
		if got[0] != want {
			t.Errorf("%q: got %v, want %v", src, got[0], want)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"42", token.INT, "42"},
		{"42L", token.LONG, "42"},
		{"3.14", token.FLOAT, "3.14"},
		{"1e5", token.FLOAT, "1e5"},
		{"2.5e-3", token.FLOAT, "2.5e-3"},
		{"1f", token.FLOAT, "1"},
		{"0x1F", token.INT, "0x1F"},
		{"0b101", token.INT, "0b101"},
		{"1_000_000", token.INT, "1000000"},
	}
	for _, c := range cases {
		toks := lexer.New(c.src).All()
		if toks[0].Kind != c.kind || toks[0].Lit != c.lit {
			t.Errorf("%q: got %v(%q), want %v(%q)", c.src, toks[0].Kind, toks[0].Lit, c.kind, c.lit)
		}
	}
}

func TestNumberDotMethod(t *testing.T) {
	// "1e" followed by a non-digit must not eat the identifier.
	got := lits("x = 1e")
	if len(got) != 3 || got[2] != "1e" && got[1] != "=" {
		// 1e with no exponent digits lexes as INT 1 then IDENT e.
		if !(len(got) == 4 && got[2] == "1" && got[3] == "e") {
			t.Errorf("got %v", got)
		}
	}
}

func TestStringsAndChars(t *testing.T) {
	toks := lexer.New(`"a\tb" 'x' '\n' "say \"hi\""`).All()
	want := []string{"a\tb", "x", "\n", `say "hi"`}
	for i, w := range want {
		if toks[i].Lit != w {
			t.Errorf("literal %d: got %q, want %q", i, toks[i].Lit, w)
		}
	}
}

func TestComments(t *testing.T) {
	src := `int x; // line comment
	/* block
	   comment */ int y;`
	got := kinds(src)
	want := []token.Kind{token.INTKW, token.IDENT, token.SEMICOLON,
		token.INTKW, token.IDENT, token.SEMICOLON, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	for _, src := range []string{`"abc`, `'a`, `/* never closed`} {
		lx := lexer.New(src)
		lx.All()
		if len(lx.Errors()) == 0 {
			t.Errorf("%q: expected a scan error", src)
		}
	}
}

func TestIllegalRune(t *testing.T) {
	lx := lexer.New("int x = #;")
	toks := lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected illegal-character error")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("expected an ILLEGAL token")
	}
}

func TestPositions(t *testing.T) {
	toks := lexer.New("a\n  bb").All()
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("bb at %v", toks[1].Pos)
	}
}

// TestQuickNeverPanics feeds arbitrary strings: the lexer must terminate with
// a token stream ending in EOF and never panic.
func TestQuickNeverPanics(t *testing.T) {
	f := func(src string) bool {
		toks := lexer.New(src).All()
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickIdentifiersRoundTrip: any ASCII identifier-shaped string lexes to
// a single IDENT (or keyword) with the same literal.
func TestQuickIdentifiersRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		name := "v" + strings.Repeat("x", int(n%20))
		toks := lexer.New(name).All()
		return len(toks) == 2 && toks[0].Kind == token.IDENT && toks[0].Lit == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// diffReference returns how the lexer's tokens and errors on src differ from
// the reference lexer's (reference_test.go), or "" when they agree.
func diffReference(src string) string {
	lx, ref := lexer.New(src), newRefLexer(src)
	got, want := lx.All(), ref.All()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("token %d: missing, reference %+v", i, want[i])
		case i >= len(want):
			return fmt.Sprintf("token %d: %+v, reference has none", i, got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("token %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	gotErrs, wantErrs := fmt.Sprint(lx.Errors()), fmt.Sprint(ref.Errors())
	if gotErrs != wantErrs {
		return fmt.Sprintf("errors %s, reference %s", gotErrs, wantErrs)
	}
	return ""
}

// FuzzLexer holds the lexer to the reference lexer on arbitrary input:
// the same tokens, positions and errors. Its seeds are edge cases plus every
// reference solution and SampleSeed(200, 1) submission of the assignments,
// so a plain go test run compares the two lexers on all of those.
func FuzzLexer(f *testing.F) {
	for _, a := range assignments.All() {
		f.Add(a.Reference())
		for _, k := range a.Synth.SampleSeed(200, 1) {
			f.Add(a.Synth.Render(k))
		}
	}
	for _, s := range []string{
		"void f(int[] a) { int s = 0; for (int i = 0; i < a.length; i++) s += a[i]; }",
		`String s = "abc`,
		"\"line\nbreak\"",
		`/* never closed`,
		"// to the end",
		"/* a */ /**/ /*/ x",
		`"Aé" 'A' "\u12" "\q" '\'`,
		"x = 1e; y = 1e+; z = 2.5E-3d;",
		"0x_1 0XfFL 0b_10 0B2 1_000L 1__0 .5 5. 1.e3 07f",
		">>>= >>> >>= >> <<= <<< ... .. !== &&= ||= ^^",
		"int\tx;\r\nx\r\n=\t1;\r\n",
		"int übung = 1; String 名前 = \"é\"; int x١ = 2; // é\n",
		"a\x00b /* \x00 */",
		"\xff\xfe id\xe2\x82 \"\xc3\" // \xe2\x82",
		"'' 'ab' '\n' # ` \\",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffReference(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}
