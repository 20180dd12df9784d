package expr

import (
	"regexp"
	"strings"

	"semfeed/internal/pdg"
)

// Unbound marks an unbound variable in γ's slot form.
const Unbound int32 = -1

// Linked is a Template bound to one graph's token table (pdg.Index): each
// fragment alternative's literal tokens are resolved to the graph's token
// IDs, so a test compares int32s and never re-tokenizes a rendering. γ is in
// slot form: gamma[slot] is the token ID of the submission variable bound to
// the pattern variable with that slot (see Template.Slots), or Unbound.
//
// An alternative with a literal that no rendering of the graph contains
// cannot match any node of the graph, so linking drops it. The zero value
// matches nothing; Link reuses a Linked's storage.
type Linked struct {
	t    *Template
	g    *pdg.Graph
	ix   *pdg.Index
	alts []linkedAlt
	code []int32 // backing store of the fragment codes
}

type linkedAlt struct {
	alt  *alternative
	code []int32 // fragment form: per token, a literal's token ID or ^slot
}

// Link binds t to graph g, reusing l's storage.
func (t *Template) Link(g *pdg.Graph, l *Linked) {
	l.t, l.g, l.ix = t, g, g.Index()
	l.alts, l.code = l.alts[:0], l.code[:0]
	if t == nil {
		return
	}
	for i := range t.alts {
		a := &t.alts[i]
		if a.isRegex {
			l.alts = append(l.alts, linkedAlt{alt: a})
			continue
		}
		start := len(l.code)
		for j, tok := range a.tokens {
			if a.slot[j] >= 0 {
				l.code = append(l.code, ^int32(a.slot[j]))
			} else if id, ok := l.ix.TokenID(tok); ok {
				l.code = append(l.code, id)
			} else {
				break
			}
		}
		if len(l.code)-start < len(a.tokens) {
			l.code = l.code[:start] // a literal the graph never uses
			continue
		}
		l.alts = append(l.alts, linkedAlt{alt: a, code: l.code[start:len(l.code):len(l.code)]})
	}
}

// Empty reports whether no alternative can match a node of the linked graph.
func (l *Linked) Empty() bool { return len(l.alts) == 0 }

// Match is Template.Match on node id of the linked graph, with γ in slot
// form.
func (l *Linked) Match(gamma []int32, id int) bool {
	for i := range l.alts {
		la := &l.alts[i]
		if la.alt.isRegex {
			if l.matchRegex(la.alt, gamma, id) {
				return true
			}
		} else if l.matchCode(la.code, gamma, id) {
			return true
		}
	}
	return false
}

// MatchMap is Match with γ as a map from pattern variable to submission
// variable, converted into slots, which must have room for every slot of
// the template. A γ naming a variable the graph's token table lacks is
// tested by Template.Match instead.
func (l *Linked) MatchMap(gamma map[string]string, id int, slots []int32) bool {
	for i := range slots {
		slots[i] = Unbound
	}
	for i, v := range l.t.Vars() {
		name, ok := gamma[v]
		if !ok {
			continue
		}
		tok, ok := l.ix.TokenID(name)
		if !ok {
			return l.t.Match(gamma, l.g.Nodes[id].Renderings())
		}
		slots[l.t.slots[i]] = tok
	}
	return l.Match(slots, id)
}

// matchCode reports whether the γ-substituted fragment occurs as a
// contiguous token run in some rendering of node id.
func (l *Linked) matchCode(code, gamma []int32, id int) bool {
	for _, c := range code {
		if c < 0 && gamma[^c] == Unbound {
			return false
		}
	}
	for _, r := range l.ix.RenderingTokens(id) {
	align:
		for o := 0; o+len(code) <= len(r); o++ {
			for j, c := range code {
				if c < 0 {
					c = gamma[^c]
				}
				if r[o+j] != c {
					continue align
				}
			}
			return true
		}
	}
	return false
}

// matchRegex splices γ into a regex alternative in one pass and matches it
// against node id's renderings.
func (l *Linked) matchRegex(a *alternative, gamma []int32, id int) bool {
	renderings := l.g.Nodes[id].Renderings()
	if len(a.refs) == 0 {
		return matchRegex(a.lits[0], renderings)
	}
	var sb strings.Builder
	sb.Grow(len(a.raw) + 32)
	for i, lit := range a.lits {
		sb.WriteString(lit)
		if i < len(a.refs) {
			v := gamma[a.refs[i]]
			if v == Unbound {
				return false
			}
			sb.WriteString(regexp.QuoteMeta(l.ix.Token(v)))
		}
	}
	return matchRegex(sb.String(), renderings)
}

// SlotTokens narrows the candidates for one variable before any γ is
// tried. It appends to dst the token at the variable's first position in
// each alignment of a fragment alternative's literal tokens with a rendering
// of node id: under a γ that binds the slot to any other token, no
// alternative matches. ok is false, and dst unchanged, when the slot cannot
// be narrowed because some alternative is a regex or does not mention it.
func (l *Linked) SlotTokens(dst []int32, id, slot int) (out []int32, ok bool) {
	for i := range l.alts {
		if firstSlot(l.alts[i].code, slot) < 0 {
			return dst, false // also true of a regex, which has no code
		}
	}
	for i := range l.alts {
		code := l.alts[i].code
		pos := firstSlot(code, slot)
		for _, r := range l.ix.RenderingTokens(id) {
		align:
			for o := 0; o+len(code) <= len(r); o++ {
				for j, c := range code {
					if c >= 0 && r[o+j] != c {
						continue align
					}
				}
				dst = append(dst, r[o+pos])
			}
		}
	}
	return dst, true
}

// firstSlot returns the first position of slot's variable in code, or -1.
func firstSlot(code []int32, slot int) int {
	want := ^int32(slot)
	for j, c := range code {
		if c == want {
			return j
		}
	}
	return -1
}

// Reset drops l's references to its graph and template, keeping its storage
// for the next Link.
func (l *Linked) Reset() {
	clear(l.alts[:cap(l.alts)])
	l.t, l.g, l.ix = nil, nil, nil
	l.alts, l.code = l.alts[:0], l.code[:0]
}
