// Package constraint implements the three constraint types of Section III-C:
// equality (Definition 8), edge existence (Definition 9) and containment
// (Definition 10). Constraints correlate embeddings of several patterns to
// perform assignment-specific fine-grained assessment.
package constraint

import (
	"fmt"
	"strings"

	"semfeed/internal/expr"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// Kinds of constraints.
const (
	Equality      = "equality"
	EdgeExistence = "edge"
	Containment   = "containment"
)

// Feedback holds the messages delivered when the constraint holds or fails.
// Templates may reference pattern variables as {x}.
type Feedback struct {
	Satisfied string `json:"satisfied,omitempty"`
	Violated  string `json:"violated,omitempty"`
}

// Constraint is the serializable form of a constraint.
//
//   - equality:    (Pi, Ui, Pj, Uj)          — ι_i(u_i) = ι_j(u_j)
//   - edge:        (Pi, Ui, Pj, Uj, EdgeType) — (ι_i(u_i), ι_j(u_j), t) ∈ E
//   - containment: (Pi, Ui, Expr, Supporting) — Expr ⪯γ' content(ι_i(u_i))
//     where γ' merges the main embedding's γ with one embedding per
//     supporting pattern.
type Constraint struct {
	Name string `json:"name"`
	Kind string `json:"kind"`

	Pi string `json:"pi"`
	Ui string `json:"ui"`
	Pj string `json:"pj,omitempty"`
	Uj string `json:"uj,omitempty"`

	EdgeType string `json:"edgeType,omitempty"`

	Expr       string   `json:"expr,omitempty"`
	Supporting []string `json:"supporting,omitempty"`

	Feedback Feedback `json:"feedback,omitempty"`
}

// Compiled is a validated constraint bound to compiled patterns.
type Compiled struct {
	Source   *Constraint
	pi, pj   *pattern.Compiled
	ui, uj   int
	edgeType pdg.EdgeType
	expr     *expr.Template
	nvars    int // slots of expr: the variables of pi and the supporting patterns
	support  []*pattern.Compiled
}

// Compile validates the constraint against the pattern registry.
func Compile(c *Constraint, patterns map[string]*pattern.Compiled) (*Compiled, error) {
	out := &Compiled{Source: c}
	resolve := func(pname, uname string) (*pattern.Compiled, int, error) {
		p, ok := patterns[pname]
		if !ok {
			return nil, 0, fmt.Errorf("constraint %s: unknown pattern %q", c.Name, pname)
		}
		u := p.NodeIndex(uname)
		if u < 0 {
			return nil, 0, fmt.Errorf("constraint %s: pattern %s has no node %q", c.Name, pname, uname)
		}
		return p, u, nil
	}
	var err error
	out.pi, out.ui, err = resolve(c.Pi, c.Ui)
	if err != nil {
		return nil, err
	}
	switch c.Kind {
	case Equality:
		out.pj, out.uj, err = resolve(c.Pj, c.Uj)
		if err != nil {
			return nil, err
		}
	case EdgeExistence:
		out.pj, out.uj, err = resolve(c.Pj, c.Uj)
		if err != nil {
			return nil, err
		}
		out.edgeType, err = pdg.ParseEdgeType(c.EdgeType)
		if err != nil {
			return nil, fmt.Errorf("constraint %s: %v", c.Name, err)
		}
	case Containment:
		// Definition 10 requires the variable sets of the main and supporting
		// patterns to be pairwise disjoint; validate and compile the template
		// over their union.
		seen := map[string]string{}
		var vars []string
		addVars := func(p *pattern.Compiled) error {
			for _, v := range p.Source.Vars {
				if owner, dup := seen[v]; dup && owner != p.Name() {
					return fmt.Errorf("constraint %s: variable %s shared by patterns %s and %s (Definition 10 requires disjoint sets)",
						c.Name, v, owner, p.Name())
				}
				if _, dup := seen[v]; !dup {
					seen[v] = p.Name()
					vars = append(vars, v)
				}
			}
			return nil
		}
		if err := addVars(out.pi); err != nil {
			return nil, err
		}
		for _, sname := range c.Supporting {
			sp, ok := patterns[sname]
			if !ok {
				return nil, fmt.Errorf("constraint %s: unknown supporting pattern %q", c.Name, sname)
			}
			if err := addVars(sp); err != nil {
				return nil, err
			}
			out.support = append(out.support, sp)
		}
		out.expr, err = expr.Compile([]string{c.Expr}, vars)
		if err != nil {
			return nil, fmt.Errorf("constraint %s: %v", c.Name, err)
		}
		out.nvars = len(vars)
	default:
		return nil, fmt.Errorf("constraint %s: unknown kind %q", c.Name, c.Kind)
	}
	return out, nil
}

// MustCompile is Compile that panics on error; for the built-in knowledge base.
func MustCompile(c *Constraint, patterns map[string]*pattern.Compiled) *Compiled {
	out, err := Compile(c, patterns)
	if err != nil {
		panic(err)
	}
	return out
}

// Name returns the constraint name.
func (c *Compiled) Name() string { return c.Source.Name }

// Patterns returns the names of every pattern the constraint refers to.
func (c *Compiled) Patterns() []string {
	names := []string{c.Source.Pi}
	if c.pj != nil {
		names = append(names, c.Source.Pj)
	}
	for _, s := range c.support {
		names = append(names, s.Name())
	}
	return names
}

// Status is the outcome of checking a constraint.
type Status int

// Constraint outcomes, mirroring ProvideFeedback's vocabulary.
const (
	Correct Status = iota
	Incorrect
	NotExpected
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Correct:
		return "Correct"
	case Incorrect:
		return "Incorrect"
	default:
		return "NotExpected"
	}
}

// Result is the outcome of a constraint check with the variable bindings of
// the satisfying (or best-effort) embedding combination, for feedback
// rendering.
type Result struct {
	Constraint *Compiled
	Status     Status
	Gamma      map[string]string
	// Combos is the number of embedding combinations this check examined
	// (pairs for Equality/EdgeExistence, merged γ' products for
	// Containment); the grader rolls it into the report's cost stats.
	Combos int
}

// Message renders the feedback message for the result.
func (r Result) Message() string {
	switch r.Status {
	case Correct:
		return pattern.RenderFeedback(r.Constraint.Source.Feedback.Satisfied, r.Gamma)
	case Incorrect:
		return pattern.RenderFeedback(r.Constraint.Source.Feedback.Violated, r.Gamma)
	default:
		return ""
	}
}

// maxCombinations bounds the containment-constraint embedding product.
const maxCombinations = 10_000

// Check evaluates the constraint against the embeddings found per pattern
// (keyed by pattern name) in graph g. If any referenced pattern has no
// embeddings, the result is NotExpected (the grader additionally forces
// NotExpected when a referenced pattern's occurrence count was off).
func (c *Compiled) Check(g *pdg.Graph, embs map[string][]match.Embedding) Result {
	for _, name := range c.Patterns() {
		if len(embs[name]) == 0 {
			return Result{Constraint: c, Status: NotExpected}
		}
	}
	combos := 0
	switch c.Source.Kind {
	case Equality:
		for _, mi := range embs[c.Source.Pi] {
			for _, mj := range embs[c.Source.Pj] {
				combos++
				if mi.Iota[c.ui] == mj.Iota[c.uj] {
					return Result{Constraint: c, Status: Correct, Gamma: mergeGamma(mi.Gamma, mj.Gamma), Combos: combos}
				}
			}
		}
		first := embs[c.Source.Pi][0]
		second := embs[c.Source.Pj][0]
		return Result{Constraint: c, Status: Incorrect, Gamma: mergeGamma(first.Gamma, second.Gamma), Combos: combos}

	case EdgeExistence:
		for _, mi := range embs[c.Source.Pi] {
			for _, mj := range embs[c.Source.Pj] {
				combos++
				if g.HasEdge(mi.Iota[c.ui], mj.Iota[c.uj], c.edgeType) {
					return Result{Constraint: c, Status: Correct, Gamma: mergeGamma(mi.Gamma, mj.Gamma), Combos: combos}
				}
			}
		}
		first := embs[c.Source.Pi][0]
		second := embs[c.Source.Pj][0]
		return Result{Constraint: c, Status: Incorrect, Gamma: mergeGamma(first.Gamma, second.Gamma), Combos: combos}

	case Containment:
		var best map[string]string
		var linked expr.Linked
		c.expr.Link(g, &linked)
		slots := make([]int32, c.nvars)
		for _, mi := range embs[c.Source.Pi] {
			for _, gamma := range c.supportCombos(embs, mi.Gamma, &combos) {
				if best == nil {
					best = gamma
				}
				if linked.MatchMap(gamma, mi.Iota[c.ui], slots) {
					return Result{Constraint: c, Status: Correct, Gamma: gamma, Combos: combos}
				}
			}
		}
		return Result{Constraint: c, Status: Incorrect, Gamma: best, Combos: combos}
	}
	return Result{Constraint: c, Status: NotExpected}
}

// supportCombos enumerates merged γ' mappings over one embedding per
// supporting pattern, bounded by maxCombinations.
func (c *Compiled) supportCombos(embs map[string][]match.Embedding, base map[string]string, combos *int) []map[string]string {
	out := []map[string]string{copyGamma(base)}
	for _, sp := range c.support {
		var next []map[string]string
		for _, g0 := range out {
			for _, se := range embs[sp.Name()] {
				*combos++
				if *combos > maxCombinations {
					return next
				}
				next = append(next, mergeGamma(g0, se.Gamma))
			}
		}
		out = next
	}
	return out
}

func copyGamma(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func mergeGamma(a, b map[string]string) map[string]string {
	out := copyGamma(a)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Describe renders the constraint in the paper's tuple notation for tooling.
func (c *Compiled) Describe() string {
	s := c.Source
	switch s.Kind {
	case Equality:
		return fmt.Sprintf("(%s, %s, %s, %s)", s.Pi, s.Ui, s.Pj, s.Uj)
	case EdgeExistence:
		return fmt.Sprintf("(%s, %s, %s, %s, %s)", s.Pi, s.Ui, s.Pj, s.Uj, s.EdgeType)
	default:
		return fmt.Sprintf("(%s, %s, %q, {%s})", s.Pi, s.Ui, s.Expr, strings.Join(s.Supporting, ", "))
	}
}
