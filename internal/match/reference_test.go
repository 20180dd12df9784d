package match_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"semfeed/internal/assignments"
	"semfeed/internal/java/parser"
	"semfeed/internal/kb"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// This file keeps Algorithm 1 as it was before the matcher moved to
// per-graph token IDs: γ as a map, every injection materialized up front
// (injections), and every test through the string form Template.Match,
// which re-tokenizes the renderings each time. It is the oracle for the
// production search: TestFindMatchesReference requires the same embeddings,
// in the same order, with the same ι, γ and marks, and the wide-statement
// tests pin the step counts it takes.

// injections enumerates every injective mapping from xs into ys as a slice
// of maps. It returns a single empty map when xs is empty, and nil when
// len(xs) > len(ys). This generalizes the paper's Combinations(X, Y): the
// paper requires |X| = |Y|, but its own worked example (pattern node u5 over
// graph node v7, which mentions the extra variable odd) needs |X| ≤ |Y|.
func injections(xs, ys []string) []map[string]string {
	if len(xs) > len(ys) {
		return nil
	}
	if len(xs) == 0 {
		return []map[string]string{{}}
	}
	var out []map[string]string
	used := make([]bool, len(ys))
	cur := make(map[string]string, len(xs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(xs) {
			m := make(map[string]string, len(cur))
			for k, v := range cur {
				m[k] = v
			}
			out = append(out, m)
			return
		}
		for j, y := range ys {
			if used[j] {
				continue
			}
			used[j] = true
			cur[xs[i]] = y
			rec(i + 1)
			delete(cur, xs[i])
			used[j] = false
		}
	}
	rec(0)
	return out
}

// referenceFind is the oracle for match.FindOpts. Only the Work fields the
// old search counted (Calls, Steps, Backtracks, Embeddings, StepLimitHits)
// are filled; Done is ignored.
func referenceFind(p *pattern.Compiled, g *pdg.Graph, opts match.Options) []match.Embedding {
	s := &refSearcher{p: p, g: g, opts: opts, gamma: map[string]string{}, ranGamma: map[string]bool{}, seen: map[string]bool{}}
	s.maxEmb = opts.MaxEmbeddings
	if s.maxEmb <= 0 {
		s.maxEmb = 256
	}
	s.iota = make([]int, len(p.Nodes))
	for i := range s.iota {
		s.iota[i] = -1
	}
	s.approx = make([]bool, len(p.Nodes))
	s.used = make([]bool, len(g.Nodes))
	s.searchSpace()
	s.computeOrder()
	s.search(0)
	if w := opts.Work; w != nil {
		w.Calls++
		w.Steps += int64(s.steps)
		w.Backtracks += int64(s.backtracks)
		w.Embeddings += int64(len(s.out))
		if s.steps >= match.MaxSteps {
			w.StepLimitHits++
		}
	}
	return refPruneDominated(s.out)
}

type refSearcher struct {
	p      *pattern.Compiled
	g      *pdg.Graph
	opts   match.Options
	maxEmb int

	phi   [][]int
	order []int

	iota       []int
	approx     []bool
	gamma      map[string]string
	used       []bool
	ranGamma   map[string]bool
	seen       map[string]bool
	steps      int
	backtracks int
	out        []match.Embedding
}

func (s *refSearcher) searchSpace() {
	prefilter := !s.opts.NoPrefilter
	var ix *pdg.Index
	if prefilter {
		ix = s.g.Index()
	}
	s.phi = make([][]int, len(s.p.Nodes))
	for i, u := range s.p.Nodes {
		var outCtrl, outData, inCtrl, inData int
		var mask uint32
		for _, e := range s.p.Out(i) {
			if e.Type == pdg.Ctrl {
				outCtrl++
			} else {
				outData++
			}
			if w := s.p.Nodes[e.To]; !w.AnyType {
				mask |= pdg.NeighborBit(true, e.Type, w.TypeResolved)
			}
		}
		for _, e := range s.p.In(i) {
			if e.Type == pdg.Ctrl {
				inCtrl++
			} else {
				inData++
			}
			if w := s.p.Nodes[e.From]; !w.AnyType {
				mask |= pdg.NeighborBit(false, e.Type, w.TypeResolved)
			}
		}
		constTemplate := prefilter && len(u.Vars()) == 0
		admit := func(v *pdg.Node) bool {
			if ix != nil {
				if ix.OutDegree(v.ID, pdg.Ctrl) < outCtrl || ix.OutDegree(v.ID, pdg.Data) < outData ||
					ix.InDegree(v.ID, pdg.Ctrl) < inCtrl || ix.InDegree(v.ID, pdg.Data) < inData ||
					ix.NeighborMask(v.ID)&mask != mask {
					return false
				}
			}
			if constTemplate {
				empty := map[string]string{}
				return u.ExactT.Match(empty, v.Renderings()) || u.ApproxT.Match(empty, v.Renderings())
			}
			return true
		}
		var cands []int
		for _, v := range s.g.Nodes {
			if !u.AnyType && v.Type != u.TypeResolved {
				continue
			}
			if admit(v) {
				cands = append(cands, v.ID)
			}
		}
		s.phi[i] = cands
	}
}

func (s *refSearcher) computeOrder() {
	n := len(s.p.Nodes)
	if s.opts.PaperOrder {
		for i := 0; i < n; i++ {
			s.order = append(s.order, i)
		}
		return
	}
	chosen := make([]bool, n)
	adjacent := func(i int) bool {
		for _, e := range s.p.Out(i) {
			if chosen[e.To] {
				return true
			}
		}
		for _, e := range s.p.In(i) {
			if chosen[e.From] {
				return true
			}
		}
		return false
	}
	for len(s.order) < n {
		best, bestScore := -1, 0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			score := len(s.phi[i])*2 + 1
			if len(s.order) > 0 && adjacent(i) {
				score = len(s.phi[i]) * 2
			}
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		chosen[best] = true
		s.order = append(s.order, best)
	}
}

func (s *refSearcher) stop() bool { return len(s.out) >= s.maxEmb || s.steps >= match.MaxSteps }

func (s *refSearcher) search(depth int) {
	if s.stop() {
		return
	}
	if depth == len(s.p.Nodes) {
		e := match.Embedding{
			Pattern: s.p,
			Iota:    append([]int(nil), s.iota...),
			Gamma:   make(map[string]string, len(s.gamma)),
			Approx:  append([]bool(nil), s.approx...),
		}
		for k, v := range s.gamma {
			e.Gamma[k] = v
		}
		if key := e.Key(); !s.seen[key] {
			s.seen[key] = true
			s.out = append(s.out, e)
		}
		return
	}
	ui := s.order[depth]
	u := s.p.Nodes[ui]
	for _, vid := range s.phi[ui] {
		if s.used[vid] {
			continue
		}
		s.steps++
		if s.steps >= match.MaxSteps {
			return
		}
		if !s.edgesHold(ui, vid) {
			s.backtracks++
			continue
		}
		v := s.g.Node(vid)
		s.iota[ui] = vid
		s.used[vid] = true
		var ys []string
		for _, y := range v.Vars {
			if !s.ranGamma[y] {
				ys = append(ys, y)
			}
		}
		matchedExact := false
		for _, z := range injections(s.fresh(u.ExactT.Vars()), ys) {
			s.bind(z)
			if u.ExactT.Match(s.gamma, v.Renderings()) {
				matchedExact = true
				s.approx[ui] = false
				s.search(depth + 1)
			}
			s.unbind(z)
			if s.stop() {
				break
			}
		}
		matchedApprox := false
		if !matchedExact && !u.ApproxT.Empty() {
			for _, z := range injections(s.fresh(u.ApproxT.Vars()), ys) {
				s.bind(z)
				if u.ApproxT.Match(s.gamma, v.Renderings()) {
					matchedApprox = true
					s.approx[ui] = true
					s.search(depth + 1)
				}
				s.unbind(z)
				if s.stop() {
					break
				}
			}
		}
		if !matchedExact && !matchedApprox {
			s.backtracks++
		}
		s.used[vid] = false
		s.iota[ui] = -1
	}
}

func (s *refSearcher) fresh(vars []string) []string {
	var out []string
	for _, x := range vars {
		if _, bound := s.gamma[x]; !bound {
			out = append(out, x)
		}
	}
	return out
}

func (s *refSearcher) bind(z map[string]string) {
	for k, val := range z {
		s.gamma[k] = val
		s.ranGamma[val] = true
	}
}

func (s *refSearcher) unbind(z map[string]string) {
	for k, val := range z {
		delete(s.gamma, k)
		delete(s.ranGamma, val)
	}
}

func (s *refSearcher) edgesHold(ui, vid int) bool {
	for _, e := range s.p.Out(ui) {
		if w := s.iota[e.To]; w >= 0 && !s.g.HasEdge(vid, w, e.Type) {
			return false
		}
	}
	for _, e := range s.p.In(ui) {
		if w := s.iota[e.From]; w >= 0 && !s.g.HasEdge(w, vid, e.Type) {
			return false
		}
	}
	return true
}

// refPruneDominated drops embeddings strictly dominated by another with
// the same ι, as match.FindOpts does.
func refPruneDominated(embs []match.Embedding) []match.Embedding {
	if len(embs) <= 1 {
		return embs
	}
	iotaKey := func(e *match.Embedding) string {
		var b []byte
		for _, v := range e.Iota {
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
		}
		return string(b)
	}
	dominates := func(a, b *match.Embedding) bool {
		strict := false
		for i := range a.Approx {
			if a.Approx[i] && !b.Approx[i] {
				return false
			}
			if b.Approx[i] && !a.Approx[i] {
				strict = true
			}
		}
		return strict
	}
	groups := map[string][]int{}
	for i := range embs {
		k := iotaKey(&embs[i])
		groups[k] = append(groups[k], i)
	}
	dead := make([]bool, len(embs))
	for _, idxs := range groups {
		for _, i := range idxs {
			for _, j := range idxs {
				if i != j && !dead[i] && dominates(&embs[i], &embs[j]) {
					dead[j] = true
				}
			}
		}
	}
	var out []match.Embedding
	for i := range embs {
		if !dead[i] {
			out = append(out, embs[i])
		}
	}
	return out
}

// TestInjections: the oracle's enumeration is total and injective, with
// the expected counts.
func TestInjections(t *testing.T) {
	cases := []struct {
		xs, ys []string
		count  int
	}{
		{nil, nil, 1},
		{nil, []string{"a", "b"}, 1},
		{[]string{"x"}, []string{"a"}, 1},
		{[]string{"x"}, []string{"a", "b"}, 2},
		{[]string{"x", "y"}, []string{"a", "b"}, 2},
		{[]string{"x", "y"}, []string{"a", "b", "c"}, 6},
		{[]string{"x", "y", "z"}, []string{"a", "b"}, 0},
	}
	for _, c := range cases {
		got := injections(c.xs, c.ys)
		if len(got) != c.count {
			t.Errorf("injections(%v, %v): %d mappings, want %d", c.xs, c.ys, len(got), c.count)
		}
		// Every mapping must be injective and total over xs.
		for _, m := range got {
			if len(m) != len(c.xs) {
				t.Errorf("mapping %v not total over %v", m, c.xs)
			}
			used := map[string]bool{}
			for _, v := range m {
				if used[v] {
					t.Errorf("mapping %v not injective", m)
				}
				used[v] = true
			}
		}
	}
}

// TestQuickInjectionCount: |injections(X, Y)| = |Y|! / (|Y|-|X|)!.
func TestQuickInjectionCount(t *testing.T) {
	f := func(nx, ny uint8) bool {
		x, y := int(nx%4), int(ny%5)
		xs := make([]string, x)
		for i := range xs {
			xs[i] = "x" + string(rune('0'+i))
		}
		ys := make([]string, y)
		for i := range ys {
			ys[i] = "y" + string(rune('0'+i))
		}
		got := len(injections(xs, ys))
		want := 1
		if x > y {
			want = 0
		} else {
			for i := 0; i < x; i++ {
				want *= y - i
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referencePatterns returns every knowledge-base pattern, then every
// pattern and group member of every assignment spec not already listed.
func referencePatterns() []*pattern.Compiled {
	var out []*pattern.Compiled
	seen := map[*pattern.Compiled]bool{}
	add := func(p *pattern.Compiled) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, name := range kb.Names() {
		add(kb.Pattern(name))
	}
	for _, a := range assignments.All() {
		for _, m := range a.Spec.Methods {
			for _, use := range m.Patterns {
				add(use.Pattern)
			}
			for _, gu := range m.Groups {
				for _, member := range gu.Group.Members {
					add(member)
				}
			}
		}
	}
	return out
}

// assignmentPatterns returns the patterns and group members an
// assignment's spec grades, in spec order.
func assignmentPatterns(id string) []*pattern.Compiled {
	var out []*pattern.Compiled
	for _, m := range assignments.Get(id).Spec.Methods {
		for _, use := range m.Patterns {
			out = append(out, use.Pattern)
		}
		for _, gu := range m.Groups {
			out = append(out, gu.Group.Members...)
		}
	}
	return out
}

// matcherOptionSets are the configurations the oracle comparison runs.
var matcherOptionSets = []struct {
	name string
	opts match.Options
}{
	{"default", match.Options{}},
	{"paper-order", match.Options{PaperOrder: true}},
	{"no-prefilter", match.Options{NoPrefilter: true}},
}

// sameEmbeddings reports the first difference between two embedding lists,
// or "" if they are equal in length, order, ι, γ and marks.
func sameEmbeddings(got, want []match.Embedding) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d embeddings, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Pattern != w.Pattern || !reflect.DeepEqual(g.Iota, w.Iota) ||
			!reflect.DeepEqual(g.Gamma, w.Gamma) || !reflect.DeepEqual(g.Approx, w.Approx) {
			return fmt.Sprintf("embedding %d: %s, oracle %s", i, g.String(), w.String())
		}
	}
	return ""
}

// TestFindMatchesReference holds FindOpts to the oracle: the same
// embeddings in the same order, with identical ι, γ and marks, for every
// knowledge-base pattern and group member over every method graph of a
// seed-1 sample of all 12 assignments, under the default options,
// PaperOrder and NoPrefilter, plus two wide-statement submissions.
func TestFindMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus scan")
	}
	patterns := referencePatterns()
	compared := 0
	check := func(label string, g *pdg.Graph) {
		for _, p := range patterns {
			for _, o := range matcherOptionSets {
				got := match.FindOpts(p, g, o.opts)
				want := referenceFind(p, g, o.opts)
				if diff := sameEmbeddings(got, want); diff != "" {
					t.Errorf("%s, method %s, pattern %s, %s: %s", label, g.Method, p.Name(), o.name, diff)
				}
				compared += len(got)
			}
		}
	}
	for _, a := range assignments.All() {
		for _, k := range a.Synth.SampleSeed(40, 1) {
			unit, err := parser.Parse(a.Synth.Render(k))
			if err != nil {
				continue // syntax-error variants have no graphs
			}
			graphs := pdg.BuildAll(unit)
			names := make([]string, 0, len(graphs))
			for name := range graphs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				check(fmt.Sprintf("%s #%d", a.ID, k), graphs[name])
			}
		}
	}
	// Over a wide statement the oracle materializes |Y|!/(|Y|-|X|)! γ maps
	// per visit, so only the patterns graded there run: assignment1's.
	patterns = assignmentPatterns("assignment1")
	for _, n := range []int{60, 400} {
		check(fmt.Sprintf("assignment1 with a %d-term statement", n), wideGraph(t, n))
	}
	if compared == 0 {
		t.Fatal("compared no embeddings")
	}
	t.Logf("compared %d embeddings", compared)
}

// wideSource returns the assignment1 reference with n more int locals, all
// added into the odd accumulation: one statement with n+1 terms, whose
// Assign node has n+3 variables. This is the wide-statement shape that
// makes γ enumeration the cost of a grade.
func wideSource(tb testing.TB, n int) string {
	tb.Helper()
	ref := assignments.Get("assignment1").Reference()
	var decl, sum strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&decl, "  int v%d = 0;\n", i)
		fmt.Fprintf(&sum, " + v%d", i)
	}
	src := strings.Replace(ref, "{\n", "{\n"+decl.String(), 1)
	src = strings.Replace(src, "odd += a[i];", "odd += a[i]"+sum.String()+";", 1)
	if n > 0 && !strings.Contains(src, "+ v0") {
		tb.Fatal("assignment1 reference changed shape: no odd += a[i] statement to widen")
	}
	return src
}

// wideGraph is the EPDG of wideSource's method.
func wideGraph(tb testing.TB, n int) *pdg.Graph {
	tb.Helper()
	unit, err := parser.Parse(wideSource(tb, n))
	if err != nil {
		tb.Fatal(err)
	}
	g := pdg.BuildAll(unit)["assignment1"]
	if g == nil {
		tb.Fatal("no assignment1 graph")
	}
	return g
}
