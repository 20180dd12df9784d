package kb

import (
	"encoding/json"
	"fmt"
	"io"

	"semfeed/internal/analysis"
	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/pattern"
)

// AssignmentDef is the serializable knowledge-base definition of one
// assignment: the file format of the builtin assignments (builtin/assignments),
// of the files the grading service hot-loads from its KB directory, and of
// kblint's input. A definition references patterns from the built-in catalog
// (and its Section VII extensions) by name, may declare additional inline
// patterns, and wires pattern uses, variability groups and constraints to
// the expected methods exactly as core.AssignmentSpec does.
type AssignmentDef struct {
	ID          string            `json:"id"`
	Description string            `json:"description,omitempty"`
	Patterns    []pattern.Pattern `json:"patterns,omitempty"` // inline pattern definitions
	Groups      []GroupDef        `json:"groups,omitempty"`
	Methods     []MethodDef       `json:"methods"`

	// Analyzers selects the static analyzers run on submissions to this
	// assignment, by name from the built-in analysis registry. Absent (nil)
	// means "inherit the grader default"; an explicit empty list disables
	// analysis for this assignment — the pointer keeps the two states apart
	// in JSON so the opt-out survives a write/read round-trip. Hot-reloads
	// with the rest of the definition.
	Analyzers *[]string `json:"analyzers,omitempty"`
}

// GroupDef declares a pattern variability group over named patterns.
type GroupDef struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Missing     string   `json:"missing,omitempty"`
	Members     []string `json:"members"`
}

// MethodDef describes one expected method of the assignment.
type MethodDef struct {
	Name        string                  `json:"name"`
	Patterns    []PatternUseDef         `json:"patterns,omitempty"`
	Groups      []GroupUseDef           `json:"groups,omitempty"`
	Constraints []constraint.Constraint `json:"constraints,omitempty"`
}

// PatternUseDef attaches a named pattern with its expected occurrence count;
// count 0 declares a bad pattern.
type PatternUseDef struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// GroupUseDef attaches a named group with its expected occurrence count.
type GroupUseDef struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// ReadAssignmentDef decodes one assignment definition, rejecting unknown
// fields so typos in hand-authored KB files surface as errors.
func ReadAssignmentDef(r io.Reader) (*AssignmentDef, error) {
	var def AssignmentDef
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("kb: decode assignment definition: %w", err)
	}
	return &def, nil
}

// WriteAssignmentDef encodes the definition as indented JSON.
func WriteAssignmentDef(w io.Writer, def *AssignmentDef) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(def)
}

// Compile resolves and validates the definition into a grading spec. Every
// violation is collected — unknown pattern references, negative counts, bad
// inline patterns, constraints whose cross-references do not resolve — so
// tooling (kblint) can report all of them in one pass. The spec is nil when
// any violation was found.
func (d *AssignmentDef) Compile() (*core.AssignmentSpec, []error) {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if d.ID == "" {
		fail("assignment definition has no id")
	}
	if len(d.Methods) == 0 {
		fail("assignment %s: no methods", d.ID)
	}

	// The pattern registry the definition resolves against: the published
	// catalog plus the extension patterns, plus the file's inline patterns.
	registry := map[string]*pattern.Compiled{}
	for name, p := range catalog {
		registry[name] = p
	}
	for name, p := range extensions {
		registry[name] = p
	}
	for i := range d.Patterns {
		p := &d.Patterns[i]
		if _, dup := registry[p.Name]; dup {
			fail("assignment %s: inline pattern %q shadows an existing pattern", d.ID, p.Name)
			continue
		}
		compiled, err := pattern.Compile(p)
		if err != nil {
			fail("assignment %s: inline pattern %q: %v", d.ID, p.Name, err)
			continue
		}
		registry[p.Name] = compiled
	}

	groups := map[string]*pattern.Group{}
	for _, gd := range d.Groups {
		var members []*pattern.Compiled
		ok := true
		for _, m := range gd.Members {
			p, found := registry[m]
			if !found {
				fail("assignment %s: group %q references unknown pattern %q", d.ID, gd.Name, m)
				ok = false
				continue
			}
			members = append(members, p)
		}
		if !ok {
			continue
		}
		g, err := pattern.NewGroup(gd.Name, gd.Description, gd.Missing, members...)
		if err != nil {
			fail("assignment %s: %v", d.ID, err)
			continue
		}
		if _, dup := groups[gd.Name]; dup {
			fail("assignment %s: duplicate group %q", d.ID, gd.Name)
			continue
		}
		groups[gd.Name] = g
	}

	spec := &core.AssignmentSpec{Name: d.ID}
	if d.Analyzers != nil {
		if names := *d.Analyzers; len(names) == 0 {
			spec.Analysis = analysis.NewDriver() // explicit opt-out
		} else if drv, err := analysis.Default().Driver(names, nil); err != nil {
			fail("assignment %s: %v", d.ID, err)
		} else {
			spec.Analysis = drv
		}
	}
	seenMethods := map[string]bool{}
	for _, md := range d.Methods {
		if md.Name == "" {
			fail("assignment %s: method with no name", d.ID)
			continue
		}
		if seenMethods[md.Name] {
			fail("assignment %s: duplicate method %q", d.ID, md.Name)
			continue
		}
		seenMethods[md.Name] = true
		ms := core.MethodSpec{Name: md.Name}
		for _, pu := range md.Patterns {
			p, found := registry[pu.Name]
			if !found {
				fail("assignment %s: method %s references unknown pattern %q", d.ID, md.Name, pu.Name)
				continue
			}
			if pu.Count < 0 {
				fail("assignment %s: method %s: pattern %q has negative count %d", d.ID, md.Name, pu.Name, pu.Count)
				continue
			}
			ms.Patterns = append(ms.Patterns, core.PatternUse{Pattern: p, Count: pu.Count})
		}
		for _, gu := range md.Groups {
			g, found := groups[gu.Name]
			if !found {
				fail("assignment %s: method %s references unknown group %q", d.ID, md.Name, gu.Name)
				continue
			}
			if gu.Count < 0 {
				fail("assignment %s: method %s: group %q has negative count %d", d.ID, md.Name, gu.Name, gu.Count)
				continue
			}
			ms.Groups = append(ms.Groups, core.GroupUse{Group: g, Count: gu.Count})
		}
		for i := range md.Constraints {
			c := &md.Constraints[i]
			compiled, err := constraint.Compile(c, registry)
			if err != nil {
				fail("assignment %s: method %s: %v", d.ID, md.Name, err)
				continue
			}
			ms.Constraints = append(ms.Constraints, compiled)
		}
		spec.Methods = append(spec.Methods, ms)
	}

	if len(errs) > 0 {
		return nil, errs
	}
	return spec, nil
}
