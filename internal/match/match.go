// Package match implements Algorithm 1 of the paper: backtracking subgraph
// matching of a pattern over an extended program dependence graph, extended
// with variable matching (γ) and approximate matches that mark pattern nodes
// as incorrect.
package match

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"semfeed/internal/expr"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// Embedding is m = (ι, γ) from Definition 7, plus the per-node
// correct/incorrect marks produced during the search.
type Embedding struct {
	Pattern *pattern.Compiled
	Iota    []int             // pattern node index -> graph node ID
	Gamma   map[string]string // pattern variable -> submission variable
	Approx  []bool            // pattern node index -> matched via r̂ (incorrect)
}

// AllCorrect reports whether every pattern node matched exactly.
func (e *Embedding) AllCorrect() bool {
	for _, a := range e.Approx {
		if a {
			return false
		}
	}
	return true
}

// GraphNode returns the graph node matched by the pattern node with the given
// ID, or -1.
func (e *Embedding) GraphNode(patternNodeID string) int {
	i := e.Pattern.NodeIndex(patternNodeID)
	if i < 0 {
		return -1
	}
	return e.Iota[i]
}

// Key returns a canonical identity of the embedding, for deduplicating
// embeddings across searches. (A search dedups on ι and its slot form of
// γ, which need no sorting.)
func (e *Embedding) Key() string { return string(e.AppendKey(nil)) }

// AppendKey appends the canonical identity to buf and returns the extended
// slice, so a caller keying many embeddings can reuse one buffer.
//
// γ entries are length-prefixed ("3:abc") rather than joined with separator
// characters: variable names are arbitrary submission identifiers, so a
// separator-based encoding ("k=v,k=v") collides whenever a name contains the
// separator (e.g. {"a": "b=c"} vs {"a=b": "c"}), and colliding keys silently
// drop distinct embeddings during deduplication.
func (e *Embedding) AppendKey(buf []byte) []byte {
	for _, v := range e.Iota {
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ',')
	}
	if len(e.Gamma) > 0 {
		buf = append(buf, '|')
		keys := make([]string, 0, len(e.Gamma))
		for k := range e.Gamma {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = appendLenPrefixed(buf, k)
			buf = appendLenPrefixed(buf, e.Gamma[k])
		}
	}
	return buf
}

// appendLenPrefixed appends s as "<len>:<bytes>", an encoding no content of
// s can forge.
func appendLenPrefixed(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	return append(buf, s...)
}

// String renders the embedding for diagnostics.
func (e *Embedding) String() string {
	var parts []string
	for i, v := range e.Iota {
		mark := ""
		if e.Approx[i] {
			mark = "~"
		}
		parts = append(parts, fmt.Sprintf("%s%s=v%d", e.Pattern.Nodes[i].ID, mark, v))
	}
	var vars []string
	for k, v := range e.Gamma {
		vars = append(vars, k+"->"+v)
	}
	sort.Strings(vars)
	return "{" + strings.Join(parts, " ") + " | " + strings.Join(vars, " ") + "}"
}

// Work accumulates matcher cost counters across FindOpts calls. The searcher
// counts locally and flushes once per call, so attaching a Work collector
// costs a handful of adds per pattern, not per candidate extension.
type Work struct {
	// Calls is the number of pattern searches run.
	Calls int64
	// Steps is the number of candidate extensions tried (Algorithm 1's
	// inner loop; the paper's dominant cost).
	Steps int64
	// Backtracks is the number of candidate nodes rejected, by a failed
	// edge check (Condition 2 of Definition 7) or because no variable
	// assignment satisfied r or r̂.
	Backtracks int64
	// Embeddings is the number of embeddings found before dominance pruning.
	Embeddings int64
	// StepLimitHits is the number of searches that exhausted MaxSteps.
	StepLimitHits int64
	// GammaTries is the number of template tests: one per complete γ
	// tested against r or r̂ (Algorithm 1 lines 16-19), and one per
	// variable-free template test of the constant-template prefilter.
	GammaTries int64
}

// Options tune the matcher; the zero value applies the defaults.
type Options struct {
	// MaxEmbeddings caps the number of embeddings returned (default 256).
	MaxEmbeddings int
	// PaperOrder disables candidate-count ordering of pattern nodes and
	// processes them in declaration order, as Algorithm 1 is written.
	// Used by the ordering ablation bench.
	PaperOrder bool
	// NoPrefilter disables the constant-template search-space prefilter.
	// Used by the ablation bench.
	NoPrefilter bool
	// Work, when non-nil, is charged this call's cost counters. It is the
	// matcher's only telemetry: the grader folds it into the grade's Stats.
	Work *Work
	// Done, when non-nil, cancels the search when it becomes readable
	// (closed contexts, per-request serving deadlines). The searcher polls
	// it every cancelPollInterval steps and returns the embeddings found so
	// far, so cancellation latency is bounded without a per-step select.
	Done <-chan struct{}
}

// MaxSteps caps the number of candidate extensions one search tries; a
// search that reaches it returns the embeddings found so far.
const MaxSteps = 1_000_000

// cancelPollInterval is how many candidate extensions run between Done
// polls: frequent enough that a deadline cuts a pathological search within
// microseconds, rare enough that the select never shows up in profiles.
const cancelPollInterval = 256

func (o Options) maxEmbeddings() int {
	if o.MaxEmbeddings > 0 {
		return o.MaxEmbeddings
	}
	return 256
}

// Find computes the embeddings of p in g (Algorithm 1) with default options.
func Find(p *pattern.Compiled, g *pdg.Graph) []Embedding {
	return FindOpts(p, g, Options{})
}

// searcherPool recycles searcher scratch state (candidate sets, the partial
// embedding, the dedup set) across FindOpts calls. The grading engine runs
// one FindOpts per pattern per method binding per submission, so under batch
// load this is the allocation hot spot; pooling cuts it to near zero without
// any API change. Returned embeddings never alias pooled memory.
var searcherPool = sync.Pool{New: func() any { return new(searcher) }}

// FindOpts computes the embeddings of p in g with explicit options.
func FindOpts(p *pattern.Compiled, g *pdg.Graph, opts Options) []Embedding {
	s := searcherPool.Get().(*searcher)
	s.reset(p, g, opts)
	s.link()
	s.computeSearchSpace()
	s.computeOrder()
	s.search(0)

	if w := opts.Work; w != nil {
		w.Calls++
		w.Steps += int64(s.steps)
		w.Backtracks += int64(s.backtracks)
		w.Embeddings += int64(len(s.out))
		w.GammaTries += int64(s.gammaTries)
		if s.steps >= MaxSteps {
			w.StepLimitHits++
		}
	}

	out := pruneDominated(s.out)
	s.release()
	return out
}

// pruneDominated drops embeddings that are strictly dominated by another
// embedding with the same node map ι: if some variable assignment lets a
// node match exactly, alternative assignments that only degrade nodes to
// approximate matches are noise, not distinct occurrences of the pattern.
// (|M| in Algorithm 2 counts pattern occurrences; occurrences are node
// maps, refined by the best variable interpretation.)
func pruneDominated(embs []Embedding) []Embedding {
	if len(embs) <= 1 {
		return embs
	}
	var keyBuf []byte
	iotaKey := func(e *Embedding) string {
		keyBuf = keyBuf[:0]
		for _, v := range e.Iota {
			keyBuf = strconv.AppendInt(keyBuf, int64(v), 10)
			keyBuf = append(keyBuf, ',')
		}
		return string(keyBuf)
	}
	dominates := func(a, b *Embedding) bool {
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
	out := embs[:0]
	for i := range embs {
		if !dead[i] {
			out = append(out, embs[i])
		}
	}
	return out
}

// SearchSpace returns Φ: for each pattern node of p, the candidate graph node
// IDs in g by type (step 1 of Algorithm 1). Exposed for tests and tooling.
func SearchSpace(p *pattern.Compiled, g *pdg.Graph) [][]int {
	s := &searcher{p: p, g: g, opts: Options{NoPrefilter: true}}
	s.computeSearchSpace()
	return s.phi
}

type searcher struct {
	p    *pattern.Compiled
	g    *pdg.Graph
	ix   *pdg.Index
	opts Options

	phi    [][]int
	order  []int
	chosen []bool        // computeOrder scratch
	linked []expr.Linked // per pattern node i: r at 2i, r̂ at 2i+1

	iota       []int
	approx     []bool
	gamma      []int32 // γ in slot form (see expr.Linked)
	used       []bool  // graph node ID -> already bound in ι
	frames     []frame // per search depth, the γ enumeration's scratch
	stamp      []uint32
	gen        uint32 // stamp[t] == gen marks token t as a surviving candidate
	seen       map[string]bool
	keyBuf     []byte
	steps      int
	backtracks int
	gammaTries int
	cancelled  bool

	out []Embedding
}

// frame is the scratch of one γ enumeration: the injections of a
// template's fresh variables into a graph node's variables outside γ's
// range (Algorithm 1 lines 16-19).
type frame struct {
	ys    []int32 // candidate submission variables, as token IDs
	taken []bool  // per ys entry: bound by the enumeration in progress
	xs    []int   // slots of the fresh variables, in template order
	cands []int32 // per xs entry, its surviving indexes into ys, run by run
	ends  []int   // per xs entry, the end of its run in cands
	toks  []int32 // expr.Linked.SlotTokens scratch
}

// maxRetainedSeen bounds the dedup set a pooled searcher keeps between
// calls; pathological searches would otherwise pin their peak memory.
const maxRetainedSeen = 4096

// maxRetainedTokens bounds the per-token scratch a pooled searcher keeps
// between calls, for the same reason: a wide submission's token table can
// be arbitrarily large.
const maxRetainedTokens = 1 << 14

// reset prepares a (possibly pooled) searcher for one FindOpts call,
// reusing whatever scratch capacity survived the previous call.
func (s *searcher) reset(p *pattern.Compiled, g *pdg.Graph, opts Options) {
	s.p, s.g, s.opts = p, g, opts
	s.ix = g.Index()
	n := len(p.Nodes)
	s.phi = resize(s.phi, n)
	s.order = s.order[:0]
	s.iota = resize(s.iota, n)
	for i := range s.iota {
		s.iota[i] = -1
	}
	s.approx = resize(s.approx, n)
	clear(s.approx)
	s.used = resize(s.used, len(g.Nodes))
	clear(s.used)
	s.gamma = resize(s.gamma, len(p.Source.Vars))
	for i := range s.gamma {
		s.gamma[i] = expr.Unbound
	}
	s.frames = resize(s.frames, n)
	if ntok := s.ix.NumTokens(); len(s.stamp) < ntok {
		s.stamp = make([]uint32, ntok)
	}
	if s.seen == nil || len(s.seen) > maxRetainedSeen {
		s.seen = map[string]bool{}
	} else {
		clear(s.seen)
	}
	s.steps, s.backtracks, s.gammaTries = 0, 0, 0
	s.cancelled = false
	s.out = nil
}

// resize returns buf with length n, reusing its capacity when it can.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// release drops every reference that could pin a pattern, a graph or the
// returned embeddings, then returns the searcher to the pool.
func (s *searcher) release() {
	s.p, s.g, s.ix = nil, nil, nil
	s.opts = Options{}
	s.out = nil
	for i := range s.linked {
		s.linked[i].Reset()
	}
	if len(s.stamp) > maxRetainedTokens {
		s.stamp = nil
		s.frames = nil
	}
	searcherPool.Put(s)
}

// link binds every pattern node's r and r̂ to the graph's token table, once
// per search.
func (s *searcher) link() {
	s.linked = resize(s.linked, 2*len(s.p.Nodes))
	for i, u := range s.p.Nodes {
		u.ExactT.Link(s.g, &s.linked[2*i])
		u.ApproxT.Link(s.g, &s.linked[2*i+1])
	}
}

// nodeReq is the structural admission test for one pattern node, derived
// from its pattern edges: a candidate graph node needs at least the
// pattern node's typed degrees, and its neighborhood must cover every
// concretely-typed pattern neighbor (see pdg.NeighborBit). Both are
// necessary conditions for Condition 2 of Definition 7, so pruning on them
// never loses an embedding.
type nodeReq struct {
	outCtrl, outData, inCtrl, inData int
	mask                             uint32
}

func (s *searcher) nodeReq(i int) nodeReq {
	var r nodeReq
	for _, e := range s.p.Out(i) {
		if e.Type == pdg.Ctrl {
			r.outCtrl++
		} else {
			r.outData++
		}
		if w := s.p.Nodes[e.To]; !w.AnyType {
			r.mask |= pdg.NeighborBit(true, e.Type, w.TypeResolved)
		}
	}
	for _, e := range s.p.In(i) {
		if e.Type == pdg.Ctrl {
			r.inCtrl++
		} else {
			r.inData++
		}
		if w := s.p.Nodes[e.From]; !w.AnyType {
			r.mask |= pdg.NeighborBit(false, e.Type, w.TypeResolved)
		}
	}
	return r
}

// computeSearchSpace builds Φ (step 1 of Algorithm 1). With the prefilter on
// (the default) it draws candidates from the graph's per-type index instead
// of scanning every node, rejects candidates whose typed degrees or
// neighborhood cannot satisfy the pattern node's edges, and tests constant
// templates up front. NoPrefilter falls back to the paper's plain typed scan.
func (s *searcher) computeSearchSpace() {
	s.phi = resize(s.phi, len(s.p.Nodes))
	prefilter := !s.opts.NoPrefilter
	var ix *pdg.Index
	if prefilter {
		ix = s.ix
	}
	for i, u := range s.p.Nodes {
		cands := s.phi[i][:0]
		constTemplate := prefilter && len(u.Vars()) == 0
		var req nodeReq
		if ix != nil {
			req = s.nodeReq(i)
		}
		admit := func(v *pdg.Node) bool {
			if ix != nil {
				if ix.OutDegree(v.ID, pdg.Ctrl) < req.outCtrl ||
					ix.OutDegree(v.ID, pdg.Data) < req.outData ||
					ix.InDegree(v.ID, pdg.Ctrl) < req.inCtrl ||
					ix.InDegree(v.ID, pdg.Data) < req.inData {
					return false
				}
				if ix.NeighborMask(v.ID)&req.mask != req.mask {
					return false
				}
			}
			if constTemplate {
				s.gammaTries++
				if s.linked[2*i].Match(s.gamma, v.ID) {
					return true
				}
				if u.ApproxT.Empty() {
					return false
				}
				s.gammaTries++
				return s.linked[2*i+1].Match(s.gamma, v.ID)
			}
			return true
		}
		if ix != nil && !u.AnyType {
			for _, id := range ix.Candidates(u.TypeResolved) {
				if v := s.g.Nodes[id]; admit(v) {
					cands = append(cands, id)
				}
			}
		} else {
			for _, v := range s.g.Nodes {
				if !u.AnyType && v.Type != u.TypeResolved {
					continue
				}
				if admit(v) {
					cands = append(cands, v.ID)
				}
			}
		}
		s.phi[i] = cands
	}
}

// computeOrder picks the processing order of pattern nodes: smallest
// candidate set first, then greedily nodes connected to the chosen prefix
// (so edge checks prune early). PaperOrder keeps declaration order.
func (s *searcher) computeOrder() {
	n := len(s.p.Nodes)
	s.order = s.order[:0]
	if s.opts.PaperOrder {
		for i := 0; i < n; i++ {
			s.order = append(s.order, i)
		}
		return
	}
	s.chosen = resize(s.chosen, n)
	chosen := s.chosen
	clear(chosen)
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
			// Prefer connected nodes, then small candidate sets.
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

func (s *searcher) search(depth int) {
	if s.stop() {
		return
	}
	if depth == len(s.p.Nodes) {
		s.emit()
		return
	}
	ui := s.order[depth]
	u := s.p.Nodes[ui]
	f := &s.frames[depth]
	for _, vid := range s.phi[ui] {
		if s.used[vid] {
			continue
		}
		s.steps++
		if s.steps >= MaxSteps {
			return
		}
		if s.opts.Done != nil && s.steps%cancelPollInterval == 0 {
			select {
			case <-s.opts.Done:
				s.cancelled = true
				return
			default:
			}
		}
		if !s.edgesHold(ui, vid) {
			s.backtracks++
			continue
		}
		s.iota[ui] = vid
		s.used[vid] = true

		// Variable matching: fresh template variables X map injectively into
		// the variables Y of the graph node outside γ's range (Algorithm 1
		// lines 16-19, generalized to |X| ≤ |Y|: the paper's own example,
		// pattern node u5 over graph node v7, which mentions the extra
		// variable odd, needs it). Exact matches take priority; only when no
		// variable assignment satisfies r do we try r̂, and then only r̂'s
		// own variables (the Y ⊆ X of Definition 4) are bound — an
		// approximate match must not conjure bindings for variables it says
		// nothing about.
		f.ys = f.ys[:0]
		for _, y := range s.ix.VarTokens(vid) {
			if !s.inRange(y) {
				f.ys = append(f.ys, y)
			}
		}
		matchedExact := s.tryGammas(depth, ui, u.ExactT, &s.linked[2*ui], false)
		matchedApprox := false
		if !matchedExact && !u.ApproxT.Empty() && !s.cancelled {
			matchedApprox = s.tryGammas(depth, ui, u.ApproxT, &s.linked[2*ui+1], true)
		}
		if !matchedExact && !matchedApprox {
			s.backtracks++
		}

		s.used[vid] = false
		s.iota[ui] = -1
		if s.cancelled {
			return
		}
	}
}

// stop reports whether the search must end: cancelled, or a cap reached.
func (s *searcher) stop() bool {
	return s.cancelled || len(s.out) >= s.opts.maxEmbeddings() || s.steps >= MaxSteps
}

// emit records the complete embedding in ι and γ unless an identical one
// was found before. The γ map is built here, once per new embedding.
func (s *searcher) emit() {
	s.keyBuf = s.keyBuf[:0]
	for _, v := range s.iota {
		s.keyBuf = binary.LittleEndian.AppendUint32(s.keyBuf, uint32(v))
	}
	for _, y := range s.gamma {
		s.keyBuf = binary.LittleEndian.AppendUint32(s.keyBuf, uint32(y))
	}
	if s.seen[string(s.keyBuf)] {
		return
	}
	s.seen[string(s.keyBuf)] = true
	e := Embedding{
		Pattern: s.p,
		Iota:    append([]int(nil), s.iota...),
		Gamma:   make(map[string]string, len(s.gamma)),
		Approx:  append([]bool(nil), s.approx...),
	}
	for k, y := range s.gamma {
		if y != expr.Unbound {
			e.Gamma[s.p.Source.Vars[k]] = s.ix.Token(y)
		}
	}
	s.out = append(s.out, e)
}

// inRange reports whether submission variable y is already bound in γ.
func (s *searcher) inRange(y int32) bool {
	for _, g := range s.gamma {
		if g == y {
			return true
		}
	}
	return false
}

// tryGammas enumerates the injections of t's fresh variables into the
// frame's candidates in Combinations(X, Y) order (variables in template
// order, candidates in node order), skipping candidates that l.SlotTokens
// rules out, and continues the search under every γ for which l matches
// the node bound to pattern node ui. It reports whether any γ matched.
func (s *searcher) tryGammas(depth, ui int, t *expr.Template, l *expr.Linked, approx bool) bool {
	f := &s.frames[depth]
	f.xs = f.xs[:0]
	for _, k := range t.Slots() {
		if s.gamma[k] == expr.Unbound {
			f.xs = append(f.xs, k)
		}
	}
	if len(f.xs) > len(f.ys) || l.Empty() {
		return false
	}
	vid := s.iota[ui]
	f.cands, f.ends = f.cands[:0], f.ends[:0]
	for _, k := range f.xs {
		var narrowed bool
		f.toks, narrowed = l.SlotTokens(f.toks[:0], vid, k)
		if narrowed {
			s.gen++
			if s.gen == 0 {
				clear(s.stamp)
				s.gen = 1
			}
			for _, t := range f.toks {
				s.stamp[t] = s.gen
			}
		}
		for j, y := range f.ys {
			if !narrowed || s.stamp[y] == s.gen {
				f.cands = append(f.cands, int32(j))
			}
		}
		f.ends = append(f.ends, len(f.cands))
	}
	f.taken = resize(f.taken, len(f.ys))
	clear(f.taken)
	matched := false
	s.assign(f, 0, ui, depth, l, approx, &matched)
	return matched
}

// assign binds f.xs[i:] one by one and tests each complete γ. It reports
// whether the enumeration must stop (see searcher.stop).
func (s *searcher) assign(f *frame, i, ui, depth int, l *expr.Linked, approx bool, matched *bool) bool {
	if i == len(f.xs) {
		s.gammaTries++
		if l.Match(s.gamma, s.iota[ui]) {
			*matched = true
			s.approx[ui] = approx
			s.search(depth + 1)
		}
		return s.stop()
	}
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	for _, j := range f.cands[start:f.ends[i]] {
		if f.taken[j] {
			continue
		}
		f.taken[j] = true
		s.gamma[f.xs[i]] = f.ys[j]
		stop := s.assign(f, i+1, ui, depth, l, approx, matched)
		s.gamma[f.xs[i]] = expr.Unbound
		f.taken[j] = false
		if stop {
			return true
		}
	}
	return false
}

// edgesHold checks Condition 2 of Definition 7 against the already-matched
// neighbors of pattern node ui, in both edge directions. (Algorithm 1 as
// printed checks only outgoing edges; incoming edges must be checked too or
// patterns whose later-ordered node is an edge source would never be
// constrained.)
func (s *searcher) edgesHold(ui, vid int) bool {
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
