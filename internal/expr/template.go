// Package expr implements incomplete Java expression templates (Definition 4
// of the paper) and the variable-aware matching relation r ⪯γ c
// (Definition 6).
//
// A template is written as a Java fragment in which some identifiers are
// declared as pattern variables (the X of Definition 6). Matching first
// substitutes the variable mapping γ into the fragment and then checks that
// the substituted token sequence occurs contiguously in (a rendering of) the
// node content c. A fragment that covers the whole content is therefore an
// exact expression match; a shorter fragment matches "x is used to access s"
// style conditions, which is how the paper applies templates such as s[x] to
// contents like odd += a[i].
//
// An alternative may also be written as a raw regular expression by prefixing
// it with "re:". Inside a regex alternative, occurrences of ${v} are replaced
// by the quoted, γ-mapped name of pattern variable v before compilation. This
// mirrors the paper's use of regular expressions for approximate matching.
//
// Template.Match, over γ as a map and renderings as strings, is the
// reference form of the relation. The matcher's hot path links a template
// to one graph's token table (Link) and tests γ in slot form, a token ID per
// pattern variable, against renderings tokenized once per graph; FuzzTemplateMatch
// holds the two forms equal.
package expr

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"semfeed/internal/java/pretty"
)

// regexPrefix marks a template alternative written as a raw regex.
const regexPrefix = "re:"

// Template is one compiled incomplete Java expression with alternatives.
// The zero value matches nothing.
type Template struct {
	alts  []alternative
	vars  []string // pattern variables appearing in any alternative, ordered
	slots []int    // per vars entry, its slot (see Slots)
}

type alternative struct {
	raw     string
	isRegex bool

	// Fragment form.
	tokens []string // canonical tokens
	slot   []int    // per token: the variable's slot, or -1 for a literal

	// Regex form: the body cut around its ${v} references, so that a γ is
	// spliced in one pass as lits[0] γ(refs[0]) lits[1] … lits[len(refs)].
	lits []string
	refs []int // slot of each reference
}

// Compile builds a template from raw alternatives given the declared pattern
// variables of the enclosing pattern. Alternatives that are fragments are
// tokenized with the canonical tokenizer; occurrences of declared variables
// become placeholders. A variable's slot is its index in patternVars.
func Compile(alternatives []string, patternVars []string) (*Template, error) {
	varSet := make(map[string]int, len(patternVars))
	for i, v := range patternVars {
		varSet[v] = i
	}
	t := &Template{}
	seen := map[string]bool{}
	addVar := func(v string) {
		if !seen[v] {
			seen[v] = true
			t.vars = append(t.vars, v)
			t.slots = append(t.slots, varSet[v])
		}
	}
	for _, raw := range alternatives {
		// Only leading space is insignificant: a regex alternative may end in
		// meaningful whitespace (e.g. `re:^${x} < ` distinguishing < from <=).
		raw = strings.TrimLeft(raw, " \t\r\n")
		if strings.TrimSpace(raw) == "" {
			continue
		}
		if strings.HasPrefix(raw, regexPrefix) {
			body := strings.TrimPrefix(raw, regexPrefix)
			for _, v := range patternVars {
				if strings.Contains(body, "${"+v+"}") {
					addVar(v)
				}
			}
			// Validate with dummy substitutions.
			probe := body
			for _, v := range patternVars {
				probe = strings.ReplaceAll(probe, "${"+v+"}", "x")
			}
			if _, err := regexp.Compile(probe); err != nil {
				return nil, fmt.Errorf("expr: bad regex alternative %q: %v", raw, err)
			}
			a := alternative{raw: body, isRegex: true}
			a.lits, a.refs = splitRefs(body, varSet)
			t.alts = append(t.alts, a)
			continue
		}
		toks := pretty.Tokens(normalizeFragment(raw))
		if len(toks) == 0 {
			continue
		}
		a := alternative{raw: raw, tokens: toks, slot: make([]int, len(toks))}
		for i, tok := range toks {
			a.slot[i] = -1
			if idx, ok := varSet[tok]; ok {
				a.slot[i] = idx
				addVar(tok)
			}
		}
		t.alts = append(t.alts, a)
	}
	return t, nil
}

// splitRefs cuts a regex body around its ${v} references to declared
// variables. Any other "${" stays literal text, which the splice then
// rejects as an unbound reference, as the reference form does.
func splitRefs(body string, varSet map[string]int) (lits []string, refs []int) {
	start := 0
	for i := 0; ; {
		j := strings.Index(body[i:], "${")
		if j < 0 {
			break
		}
		j += i
		k := strings.IndexByte(body[j+2:], '}')
		if k < 0 {
			break
		}
		k += j + 2
		slot, ok := varSet[body[j+2:k]]
		if !ok {
			i = j + 1
			continue
		}
		lits = append(lits, body[start:j])
		refs = append(refs, slot)
		start, i = k+1, k+1
	}
	return append(lits, body[start:]), refs
}

// MustCompile is Compile that panics on error; for statically-known templates.
func MustCompile(alternatives []string, patternVars []string) *Template {
	t, err := Compile(alternatives, patternVars)
	if err != nil {
		panic(err)
	}
	return t
}

// normalizeFragment canonicalizes whitespace in a fragment. Full parsing is
// not attempted because fragments may be genuinely incomplete.
func normalizeFragment(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Vars returns the pattern variables referenced by the template, in first-use
// order across alternatives.
func (t *Template) Vars() []string {
	if t == nil {
		return nil
	}
	return t.vars
}

// Slots returns the slot of each variable of Vars: its index in the pattern
// variables the template was compiled with. γ in slot form is indexed by
// slot.
func (t *Template) Slots() []int {
	if t == nil {
		return nil
	}
	return t.slots
}

// Empty reports whether the template has no alternatives (matches nothing).
func (t *Template) Empty() bool { return t == nil || len(t.alts) == 0 }

// Match reports whether the template matches any of the given renderings of
// a node content under the (total, for this template's variables) mapping γ.
func (t *Template) Match(gamma map[string]string, renderings []string) bool {
	if t.Empty() {
		return false
	}
	for _, a := range t.alts {
		if a.isRegex {
			if matchRegexAlt(a.raw, gamma, renderings) {
				return true
			}
			continue
		}
		needle := make([]string, len(a.tokens))
		ok := true
		for i, tok := range a.tokens {
			if a.slot[i] >= 0 {
				mapped, bound := gamma[tok]
				if !bound {
					ok = false
					break
				}
				needle[i] = mapped
			} else {
				needle[i] = tok
			}
		}
		if !ok {
			continue
		}
		for _, r := range renderings {
			if containsTokens(pretty.Tokens(r), needle) {
				return true
			}
		}
	}
	return false
}

// regexCacheCap bounds regexCache. Its keys are γ-substituted patterns, one
// per student naming of the pattern variables, so the key space is
// controlled by submissions. Past the cap a pattern is compiled per use and
// not stored.
const regexCacheCap = 1024

var (
	regexCache    sync.Map // string -> *regexp.Regexp
	regexCacheLen atomic.Int64
)

func matchRegexAlt(body string, gamma map[string]string, renderings []string) bool {
	pat := body
	for v, mapped := range gamma {
		pat = strings.ReplaceAll(pat, "${"+v+"}", regexp.QuoteMeta(mapped))
	}
	return matchRegex(pat, renderings)
}

// matchRegex compiles a γ-substituted regex body, through regexCache, and
// reports whether it matches any rendering.
func matchRegex(pat string, renderings []string) bool {
	if strings.Contains(pat, "${") {
		return false // refers to an unbound variable
	}
	var re *regexp.Regexp
	if cached, ok := regexCache.Load(pat); ok {
		re = cached.(*regexp.Regexp)
	} else {
		compiled, err := regexp.Compile(pat)
		if err != nil {
			return false
		}
		// Reserve a slot before storing, so concurrent misses never push
		// the cache past the cap.
		if regexCacheLen.Add(1) > regexCacheCap {
			regexCacheLen.Add(-1)
		} else if _, loaded := regexCache.LoadOrStore(pat, compiled); loaded {
			regexCacheLen.Add(-1)
		}
		re = compiled
	}
	for _, r := range renderings {
		if re.MatchString(r) {
			return true
		}
	}
	return false
}

// containsTokens reports whether needle occurs as a contiguous subsequence of
// haystack.
func containsTokens(haystack, needle []string) bool {
	if len(needle) == 0 {
		return false
	}
	if len(needle) > len(haystack) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, n := range needle {
			if haystack[i+j] != n {
				continue outer
			}
		}
		return true
	}
	return false
}
