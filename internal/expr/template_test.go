package expr_test

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"semfeed/internal/expr"
)

func compile(t *testing.T, alts []string, vars []string) *expr.Template {
	t.Helper()
	tmpl, err := expr.Compile(alts, vars)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestFragmentContainment(t *testing.T) {
	vars := []string{"x", "s"}
	cases := []struct {
		tmpl    string
		gamma   map[string]string
		content string
		want    bool
	}{
		{"x = 0", map[string]string{"x": "i"}, "int i = 0", true},
		{"x = 0", map[string]string{"x": "i"}, "int i = 1", false},
		{"x = 0", map[string]string{"x": "i"}, "int j = 0", false},
		{"s[x]", map[string]string{"s": "a", "x": "i"}, "odd += a[i]", true},
		{"s[x]", map[string]string{"s": "a", "x": "i"}, "odd += a[j]", false},
		{"x % 2 == 1", map[string]string{"x": "i"}, "i % 2 == 1", true},
		{"x % 2 == 1", map[string]string{"x": "i"}, "i % 2 == 10", false}, // token boundary
		{"x < s.length", map[string]string{"x": "i", "s": "a"}, "i < a.length", true},
		{"x < s.length", map[string]string{"x": "i", "s": "a"}, "i <= a.length", false},
	}
	for _, c := range cases {
		tmpl := compile(t, []string{c.tmpl}, vars)
		if got := tmpl.Match(c.gamma, []string{c.content}); got != c.want {
			t.Errorf("%q over %q with %v: got %v, want %v", c.tmpl, c.content, c.gamma, got, c.want)
		}
	}
}

func TestTokenBoundaries(t *testing.T) {
	// "x" must not match inside larger identifiers.
	tmpl := compile(t, []string{"x"}, []string{"x"})
	if tmpl.Match(map[string]string{"x": "i"}, []string{"int index = 0"}) {
		t.Error("'i' must not match inside 'index'")
	}
	if !tmpl.Match(map[string]string{"x": "i"}, []string{"a[i]"}) {
		t.Error("'i' should match as a standalone token")
	}
}

func TestAlternatives(t *testing.T) {
	tmpl := compile(t, []string{"x++", "x += 1", "x = x + 1"}, []string{"x"})
	g := map[string]string{"x": "n"}
	for _, content := range []string{"n++", "n += 1", "n = n + 1"} {
		if !tmpl.Match(g, []string{content}) {
			t.Errorf("should match %q", content)
		}
	}
	if tmpl.Match(g, []string{"n += 2"}) {
		t.Error("must not match n += 2")
	}
}

func TestMultipleRenderings(t *testing.T) {
	tmpl := compile(t, []string{"x = 0"}, []string{"x"})
	g := map[string]string{"x": "i"}
	if !tmpl.Match(g, []string{"int i = 0", "i = 0"}) {
		t.Error("should match via some rendering")
	}
	if !tmpl.Match(g, []string{"nope", "i = 0"}) {
		t.Error("should match via the second rendering")
	}
}

func TestRegexAlternative(t *testing.T) {
	tmpl := compile(t, []string{`re:${s}\[[^\]]*${x}[^\]]*\]`}, []string{"s", "x"})
	g := map[string]string{"s": "a", "x": "i"}
	for content, want := range map[string]bool{
		"a[i]":     true,
		"a[i + 1]": true,
		"a[2 * i]": true,
		"a[j]":     false,
		"b[i]":     false,
		"a.length": false,
	} {
		if got := tmpl.Match(g, []string{content}); got != want {
			t.Errorf("regex over %q: got %v, want %v", content, got, want)
		}
	}
}

func TestRegexUnboundVariableFails(t *testing.T) {
	tmpl := compile(t, []string{`re:${x} == 1`}, []string{"x"})
	if tmpl.Match(map[string]string{}, []string{"i == 1"}) {
		t.Error("regex referencing an unbound variable must not match")
	}
}

func TestRegexMetaInVariableName(t *testing.T) {
	// Variable values are quoted before regex substitution.
	tmpl := compile(t, []string{`re:^${x} = 0$`}, []string{"x"})
	if tmpl.Match(map[string]string{"x": "a.b"}, []string{"aXb = 0"}) {
		t.Error("dot in mapped name must be literal")
	}
}

func TestRegexTrailingWhitespacePreserved(t *testing.T) {
	// A trailing space in a regex alternative is significant: it is how a
	// template distinguishes "i < n" from "i <= n" by prefix.
	tmpl := compile(t, []string{`re:^${x} < `}, []string{"x"})
	g := map[string]string{"x": "i"}
	if !tmpl.Match(g, []string{"i < a.length"}) {
		t.Error("should match the strict comparison")
	}
	if tmpl.Match(g, []string{"i <= a.length"}) {
		t.Error("must not match <= (the trailing space is load-bearing)")
	}
}

func TestBadRegexRejected(t *testing.T) {
	if _, err := expr.Compile([]string{"re:([unclosed"}, nil); err == nil {
		t.Error("expected a compile error for a bad regex")
	}
}

func TestVars(t *testing.T) {
	tmpl := compile(t, []string{"x < s.length", `re:${x} > 0`}, []string{"x", "s", "unused"})
	got := append([]string(nil), tmpl.Vars()...)
	sort.Strings(got)
	if strings.Join(got, ",") != "s,x" {
		t.Errorf("Vars = %v, want [s x]", got)
	}
}

func TestEmptyTemplate(t *testing.T) {
	tmpl := compile(t, nil, nil)
	if !tmpl.Empty() {
		t.Error("template with no alternatives should be Empty")
	}
	if tmpl.Match(map[string]string{}, []string{"anything"}) {
		t.Error("empty template matches nothing")
	}
	var nilT *expr.Template
	if !nilT.Empty() || nilT.Match(nil, []string{"x"}) {
		t.Error("nil template must be Empty and match nothing")
	}
}

// TestQuickSubstitutedSelfMatch: a fragment always matches itself after
// substitution, whatever names γ assigns.
func TestQuickSubstitutedSelfMatch(t *testing.T) {
	f := func(a, b uint8) bool {
		names := []string{"i", "j", "counter", "total", "v2"}
		ga := names[int(a)%len(names)]
		gb := names[int(b)%len(names)]
		if ga == gb {
			return true // γ must be injective; skip
		}
		tmpl, err := expr.Compile([]string{"x = s + 1"}, []string{"x", "s"})
		if err != nil {
			return false
		}
		content := ga + " = " + gb + " + 1"
		return tmpl.Match(map[string]string{"x": ga, "s": gb}, []string{content})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
