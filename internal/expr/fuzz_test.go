package expr_test

import (
	"strings"
	"testing"

	"semfeed/internal/expr"
	"semfeed/internal/pdg"
)

// fuzzVars are the declared pattern variables of every fuzzed template.
var fuzzVars = []string{"x", "s", "y"}

// parseGamma reads "x=i,s=a" into γ, keeping only declared variables, and
// returns the bound names in order.
func parseGamma(spec string) (map[string]string, []string) {
	gamma := map[string]string{}
	var names []string
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		for _, d := range fuzzVars {
			if k == d {
				gamma[k] = v
				names = append(names, v)
			}
		}
	}
	return gamma, names
}

// FuzzTemplateMatch holds the compiled matcher, linked to a one-node graph,
// equal to the reference Template.Match on the same fragment alternatives,
// renderings and γ; and it checks that SlotTokens never rules out a binding
// under which the template matches.
func FuzzTemplateMatch(f *testing.F) {
	for _, c := range []struct{ alt1, alt2, content, alt, gamma string }{
		{"x = 0", "", "int i = 0", "i = 0", "x=i"},
		{"x = 0", "", "int i = 1", "i = 1", "x=i"},
		{"s[x]", "", "odd += a[i]", "", "s=a,x=i"},
		{"s[x]", "", "odd += a[j]", "", "s=a,x=i"},
		{"x % 2 == 1", "", "i % 2 == 10", "", "x=i"},
		{"x < s.length", "", "i <= a.length", "", "x=i,s=a"},
		{"x", "", "int index = 0", "", "x=i"},
		{"x++", "x += 1", "n += 1", "", "x=n"},
		{"x = x + 1", "x++", "n = n + 1", "", "x=n"},
		{`re:${s}\[[^\]]*${x}[^\]]*\]`, "", "a[2 * i]", "", "s=a,x=i"},
		{`re:${x} == 1`, "", "i == 1", "", ""},
		{`re:^${x} = 0$`, "", "aXb = 0", "", "x=a.b"},
		{`re:^${x} < `, "x < s", "i <= a.length", "", "x=i,s=a"},
		{`re:^${x}\s*\+=\s*1$`, "", "n7$ += 1", "", "x=n7$"},
		{"x = s + 1", "", "total = v2 + 1", "", "x=total,s=v2"},
		{"s.y(x)", "", `System.out.println("x" + i)`, "", "s=System,y=out,x=i"},
	} {
		f.Add(c.alt1, c.alt2, c.content, c.alt, c.gamma)
	}
	f.Fuzz(func(t *testing.T, alt1, alt2, content, alt, gammaSpec string) {
		if len(alt1)+len(alt2)+len(content)+len(alt)+len(gammaSpec) > 512 {
			return // long regex bodies only slow the search down
		}
		tmpl, err := expr.Compile([]string{alt1, alt2}, fuzzVars)
		if err != nil {
			return
		}
		gamma, names := parseGamma(gammaSpec)
		// The reference splices γ into a regex with one ReplaceAll per
		// entry, in map order: a name ending in '$' before a literal
		// "{v}" turns it into a reference whose fate depends on that
		// order. The splice reads the body's references only.
		if strings.Contains(alt1+alt2, "}{") {
			for _, v := range names {
				if strings.HasSuffix(v, "$") {
					return
				}
			}
		}
		n := &pdg.Node{Type: pdg.Assign, Content: content, Vars: names}
		if alt != "" {
			n.Alts = []string{alt}
		}
		g := pdg.NewGraph("f", []*pdg.Node{n}, nil)

		var l expr.Linked
		tmpl.Link(g, &l)
		slots := make([]int32, len(fuzzVars))
		want := tmpl.Match(gamma, n.Renderings())
		if got := l.MatchMap(gamma, n.ID, slots); got != want {
			t.Fatalf("alternatives %q %q over %q / %q under %v: compiled %v, reference %v",
				alt1, alt2, content, alt, gamma, got, want)
		}
		if !want {
			return
		}
		for i, v := range tmpl.Vars() {
			name, bound := gamma[v]
			if !bound {
				continue
			}
			toks, narrowed := l.SlotTokens(nil, n.ID, tmpl.Slots()[i])
			if !narrowed {
				continue
			}
			id, _ := g.Index().TokenID(name)
			found := false
			for _, tok := range toks {
				found = found || tok == id
			}
			if !found {
				t.Fatalf("alternatives %q %q over %q / %q under %v: SlotTokens rules out %s=%s, under which the template matches",
					alt1, alt2, content, alt, gamma, v, name)
			}
		}
	})
}
