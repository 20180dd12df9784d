package analysis

import (
	"fmt"
	"strings"

	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
	"semfeed/internal/pdg"
)

func init() {
	defaultRegistry.MustRegister(
		UseBeforeDef,
		DeadStore,
		Unreachable,
		ConstCond,
		LoopNoProgress,
		NoReturn,
	)
}

// UseBeforeDef flags reads of a variable on paths where no assignment can
// have happened yet: either every definition appears later in the method, or
// every reaching definition is an uninitialized declaration ("int x;").
// Variables never declared inside the method — whether never defined at all
// (library names) or only assigned ("count = count + n;" on a field) — are
// class fields whose values arrive from outside the method and are never
// reported.
var UseBeforeDef = &Analyzer{
	Name:     "usebeforedef",
	Doc:      "reports variables read before any assignment can have executed",
	Severity: Error,
	Run: func(p *Pass) []Diagnostic {
		reach := p.ReachingDefs()
		reachable := p.Reachable()
		var out []Diagnostic
		seen := map[string]bool{} // one report per variable
		for _, n := range p.Graph.Nodes {
			if !reachable[n.ID] {
				continue
			}
			for _, u := range n.Uses {
				if seen[u] || len(p.Defs(u)) == 0 {
					continue
				}
				defs := reach.In(n.ID, u)
				switch {
				case len(defs) == 0:
					if !p.Declared(u) {
						continue // field read-modify-write: the value outlives the method
					}
					seen[u] = true
					out = append(out, Diagnostic{
						Line: n.Line, NodeID: n.ID,
						Message: fmt.Sprintf("variable %q is used before it is assigned", u),
					})
				case allUninit(p.Graph, defs):
					seen[u] = true
					out = append(out, Diagnostic{
						Line: n.Line, NodeID: n.ID,
						Message: fmt.Sprintf("variable %q may be used before it is initialized", u),
					})
				}
			}
		}
		return out
	},
}

func allUninit(g *pdg.Graph, defs []int) bool {
	for _, d := range defs {
		if !g.Node(d).Uninit {
			return false
		}
	}
	return true
}

// DeadStore flags assignments whose value can never be read: no CFG path
// from the store reaches a use of the variable before the next killing
// store. Weak definitions (array/field element writes) and assignments to
// class fields (values that outlive the method) are exempt.
var DeadStore = &Analyzer{
	Name:     "deadstore",
	Doc:      "reports assignments whose stored value is never read",
	Severity: Warning,
	Run: func(p *Pass) []Diagnostic {
		reach := p.ReachingDefs()
		reachable := p.Reachable()
		// read[d] is true when definition node d reaches some use of its
		// variable.
		read := map[int]bool{}
		for _, n := range p.Graph.Nodes {
			for _, u := range n.Uses {
				for _, d := range reach.In(n.ID, u) {
					read[d] = true
				}
			}
		}
		var out []Diagnostic
		for _, n := range p.Graph.Nodes {
			if n.Type != pdg.Assign || n.WeakDef || n.Uninit || len(n.Defs) != 1 {
				continue
			}
			if !reachable[n.ID] || read[n.ID] {
				continue
			}
			v := n.Defs[0]
			if !p.Declared(v) {
				continue // class field: later reads happen outside the method
			}
			out = append(out, Diagnostic{
				Line: n.Line, NodeID: n.ID,
				Message: fmt.Sprintf("value assigned to %q is never read", v),
			})
		}
		return out
	},
}

// Unreachable flags statements control flow cannot reach from method entry
// (code after a return/break, or inside a dead branch). Only the first node
// of each unreachable region is reported.
var Unreachable = &Analyzer{
	Name:     "unreachable",
	Doc:      "reports statements that control flow can never reach",
	Severity: Warning,
	Run: func(p *Pass) []Diagnostic {
		cfg := p.CFG()
		reachable := p.Reachable()
		var out []Diagnostic
		for _, n := range p.Graph.Nodes {
			if reachable[n.ID] {
				continue
			}
			// Region entry: no predecessor earlier in program order (back
			// edges from later nodes do not make a node an interior one).
			entry := true
			for _, pr := range cfg.Pred(n.ID) {
				if pr < n.ID {
					entry = false
					break
				}
			}
			if entry {
				out = append(out, Diagnostic{
					Line: n.Line, NodeID: n.ID,
					Message: fmt.Sprintf("statement %q is unreachable", n.Content),
				})
			}
		}
		return out
	},
}

// ConstCond flags conditions that fold to a compile-time constant boolean.
// The idiomatic infinite loops "while (true)" / "for (;;)" are exempt, as
// are switch tags and for-each headers (not boolean conditions).
var ConstCond = &Analyzer{
	Name:     "constcond",
	Doc:      "reports conditions that always evaluate to the same value",
	Severity: Warning,
	Run: func(p *Pass) []Diagnostic {
		reachable := p.Reachable()
		var out []Diagnostic
		for _, n := range p.Graph.Nodes {
			if n.Type != pdg.Cond || !reachable[n.ID] {
				continue
			}
			if n.Kind == pdg.CondForEach || n.Kind == pdg.CondSwitch {
				continue
			}
			if n.Kind == pdg.CondLoop && n.Content == "true" {
				continue // intentional infinite loop idiom
			}
			if !maybeConst(n.Content) {
				continue
			}
			e, err := parser.ParseExpr(n.Content)
			if err != nil {
				continue
			}
			v, ok := interp.FoldConst(e)
			if !ok {
				continue
			}
			b, isBool := v.(bool)
			if !isBool {
				continue
			}
			out = append(out, Diagnostic{
				Line: n.Line, NodeID: n.ID,
				Message: fmt.Sprintf("condition %q is always %v", n.Content, b),
			})
		}
		return out
	},
}

// maybeConst prescreens a condition before the parse-and-fold attempt: only
// closed expressions fold, so any identifier other than the boolean literals
// disqualifies it. Nearly every real condition mentions a variable, which
// keeps the expression parser off the analysis hot path.
func maybeConst(content string) bool {
	for i := 0; i < len(content); {
		c := content[i]
		if isIdentByte(c) {
			j := i
			for j < len(content) && isIdentByte(content[j]) {
				j++
			}
			word := content[i:j]
			if word != "true" && word != "false" && !isNumber(word) {
				return false
			}
			i = j
			continue
		}
		i++
	}
	return true
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '$' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func isNumber(word string) bool {
	return len(word) > 0 && '0' <= word[0] && word[0] <= '9'
}

// LoopNoProgress flags loops whose condition variables are never redefined
// in the body — and where no call in the body could plausibly change them,
// and no break/return can leave the loop — so the condition's value can
// never change and the loop either runs forever or not at all.
var LoopNoProgress = &Analyzer{
	Name:     "loopnoprogress",
	Doc:      "reports loops whose condition can never change",
	Severity: Error,
	Run: func(p *Pass) []Diagnostic {
		reachable := p.Reachable()
		var out []Diagnostic
		for _, n := range p.Graph.Nodes {
			if n.Type != pdg.Cond || n.Kind != pdg.CondLoop || !reachable[n.ID] {
				continue
			}
			if len(n.Uses) == 0 {
				continue // constant condition: constcond's department
			}
			body := ctrlSubtree(p.Graph, n.ID)
			if len(body) == 0 {
				continue // do-while condition or empty body
			}
			if loopAdvances(p.Graph, n, body) {
				continue
			}
			out = append(out, Diagnostic{
				Line: n.Line, NodeID: n.ID,
				Message: fmt.Sprintf("loop condition %q never changes in the loop body; possible infinite loop", n.Content),
			})
		}
		return out
	},
}

// loopAdvances reports whether the loop headed by cond can terminate: a
// body node redefines a condition variable, a call-bearing body node reads
// one (it may mutate it), or a break/return escapes the loop.
func loopAdvances(g *pdg.Graph, cond *pdg.Node, body []int) bool {
	for _, id := range body {
		bn := g.Node(id)
		if bn.Type == pdg.Break || bn.Type == pdg.Return {
			return true
		}
		for _, v := range cond.Uses {
			for _, d := range bn.Defs {
				if d == v {
					return true
				}
			}
			if strings.Contains(bn.Content, "(") {
				for _, u := range bn.Uses {
					if u == v {
						return true // e.g. x = sc.nextInt(): call may advance x
					}
				}
			}
		}
	}
	return false
}

// ctrlSubtree returns every node transitively controlled by root.
func ctrlSubtree(g *pdg.Graph, root int) []int {
	var out []int
	var walk func(int)
	walk = func(id int) {
		for _, e := range g.Out(id) {
			// Only descend to children, so TransitiveCtrl graphs do not
			// double-count.
			if e.Type == pdg.Ctrl && g.Parent(e.To) == id {
				out = append(out, e.To)
				walk(e.To)
			}
		}
	}
	walk(root)
	return out
}

// NoReturn flags value-returning methods with a path that falls off the end
// without returning. A method is value-returning when it contains at least
// one "return expr;" node (the EPDG does not record declared return types).
var NoReturn = &Analyzer{
	Name:     "noreturn",
	Doc:      "reports value-returning methods where a path reaches the end without a return",
	Severity: Error,
	Run: func(p *Pass) []Diagnostic {
		returnsValue := false
		for _, n := range p.Graph.Nodes {
			if n.Type == pdg.Return && strings.HasPrefix(n.Content, "return ") {
				returnsValue = true
				break
			}
		}
		if !returnsValue {
			return nil
		}
		cfg := p.CFG()
		reachable := p.Reachable()
		last := -1
		for _, id := range cfg.FallOff {
			if reachable[id] && (last == -1 || id > last) {
				last = id
			}
		}
		if last == -1 {
			return nil
		}
		n := p.Graph.Node(last)
		return []Diagnostic{{
			Line: n.Line, NodeID: n.ID,
			Message: fmt.Sprintf("control can fall off the end of method %q without returning a value (after %q)", p.Method, n.Content),
		}}
	},
}
