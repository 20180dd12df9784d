package kb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"semfeed/internal/analysis"
	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/pattern"
	"semfeed/internal/synth"
)

// AssignmentDef is the serializable knowledge-base definition of one
// assignment: the file format of the builtin assignments (builtin/assignments),
// of the files the grading service hot-loads from its KB directory, and of
// kblint's input. A definition references patterns from the built-in catalog
// (and its Section VII extensions) by name, may declare additional inline
// patterns, and wires pattern uses, variability groups and constraints to
// the expected methods exactly as core.AssignmentSpec does.
//
// The optional Synth, Tests and Paper sections make the file a whole Table I
// assignment: its synthetic submission space, its functional-test suite and
// the row the paper publishes for it.
type AssignmentDef struct {
	ID          string            `json:"id"`
	Description string            `json:"description,omitempty"`
	Course      string            `json:"course,omitempty"`
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

	// Synth is the submission space; its reference (choice 0 of every
	// point) is the model solution the tests section is typed and recorded
	// against.
	Synth *synth.Spec `json:"synth,omitempty"`
	Tests *TestsDef   `json:"tests,omitempty"`
	Paper *PaperRow   `json:"paper,omitempty"`

	// typed holds the test arguments a Compile without violations typed,
	// which Suite reads rather than parse the reference again.
	typed [][]interp.Value
}

// TestsDef is the functional-test suite of an assignment, the ground truth
// of Table I. Files maps each virtual file name the submissions open to a
// fixture path, relative to the definition file; every case sees the same
// files.
type TestsDef struct {
	Entry    string            `json:"entry"`
	MaxSteps int               `json:"max_steps,omitempty"`
	Files    map[string]string `json:"files,omitempty"`
	Cases    []CaseDef         `json:"cases"`
}

// CaseDef is one functional test. Args are plain JSON values, each typed by
// the matching parameter of the entry method in the reference: int, double
// and String take a number, a number and a string; int[] and double[] take
// an array of numbers. Want is the reference's recorded console output.
type CaseDef struct {
	Name string            `json:"name"`
	Args []json.RawMessage `json:"args"`
	Want string            `json:"want"`
}

// PaperRow records the Table I row published for an assignment, which the
// benchmark harness prints next to the measured one. T and M are seconds.
type PaperRow struct {
	S int64   `json:"s"`
	L float64 `json:"l"`
	T float64 `json:"t"`
	P int     `json:"p"`
	C int     `json:"c"`
	M float64 `json:"m"`
	D int     `json:"d"`
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
	if def.Synth != nil {
		def.Synth.Name = def.ID
	}
	return &def, nil
}

// Compile resolves and validates the definition into a grading spec. Every
// violation is collected — unknown pattern references, negative counts, bad
// inline patterns, constraints whose cross-references do not resolve, an
// invalid submission space, a tests section without one, and test arguments
// that do not fit their parameters — so tooling (kblint) can report all of
// them in one pass. The spec is nil when any violation was found. Compile
// runs nothing: checking the recorded outputs is kblint's job.
func (d *AssignmentDef) Compile() (*core.AssignmentSpec, []error) {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if d.ID == "" {
		fail("assignment definition has no id")
	}
	if len(d.Methods) == 0 {
		fail("assignment %s: no methods", d.ID)
	}
	if d.Synth != nil {
		if err := d.Synth.Validate(); err != nil {
			fail("assignment %s: %v", d.ID, err)
		}
	}
	var typed [][]interp.Value
	if d.Tests != nil {
		var argErrs []error
		typed, argErrs = d.args()
		errs = append(errs, argErrs...)
	}

	// The pattern registry the definition resolves against: the published
	// catalog plus the extension patterns, plus the file's inline patterns.
	catalog, extensions := patterns()
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
	d.typed = typed
	return spec, nil
}

// Suite builds the functional-test suite of the tests section: the
// arguments a successful Compile typed, the recorded wants, and each file
// read through readFixture, which resolves a fixture path relative to the
// definition file. It returns nil for a definition without tests, and an
// error when no Compile of d has succeeded.
func (d *AssignmentDef) Suite(readFixture func(path string) ([]byte, error)) (*functest.Suite, error) {
	if d.Tests == nil {
		return nil, nil
	}
	if d.typed == nil {
		return nil, fmt.Errorf("assignment %s: Suite before a successful Compile", d.ID)
	}
	var files map[string]string
	for name, path := range d.Tests.Files {
		data, err := readFixture(path)
		if err != nil {
			return nil, fmt.Errorf("assignment %s: file %s: %w", d.ID, name, err)
		}
		if files == nil {
			files = map[string]string{}
		}
		files[name] = string(data)
	}
	suite := &functest.Suite{Entry: d.Tests.Entry, MaxSteps: d.Tests.MaxSteps, Cases: make([]functest.Case, len(d.Tests.Cases))}
	for i, c := range d.Tests.Cases {
		suite.Cases[i] = functest.Case{Name: c.Name, Args: d.typed[i], Files: files, Want: c.Want}
	}
	return suite, nil
}

// args types every case's arguments by the parameters of the entry method
// in the synth section's reference.
func (d *AssignmentDef) args() ([][]interp.Value, []error) {
	if d.Synth == nil {
		return nil, []error{fmt.Errorf("assignment %s: tests section without a synth section", d.ID)}
	}
	unit, err := parser.Parse(d.Synth.Reference())
	if err != nil {
		return nil, []error{fmt.Errorf("assignment %s: reference does not parse: %w", d.ID, err)}
	}
	entry := unit.FindMethod(d.Tests.Entry)
	if entry == nil {
		return nil, []error{fmt.Errorf("assignment %s: tests entry %q is not a method of the reference", d.ID, d.Tests.Entry)}
	}
	var errs []error
	out := make([][]interp.Value, len(d.Tests.Cases))
	for i, c := range d.Tests.Cases {
		if len(c.Args) != len(entry.Params) {
			errs = append(errs, fmt.Errorf("assignment %s: test %s: %d args for %d parameters of %s",
				d.ID, c.Name, len(c.Args), len(entry.Params), entry.Name))
			continue
		}
		out[i] = make([]interp.Value, len(c.Args))
		for j, raw := range c.Args {
			p := entry.Params[j]
			v, err := argValue(raw, p.Type)
			if err != nil {
				errs = append(errs, fmt.Errorf("assignment %s: test %s: arg %d for parameter %s %s: %v",
					d.ID, c.Name, j+1, p.Type, p.Name, err))
			}
			out[i][j] = v
		}
	}
	return out, errs
}

// argValue decodes one JSON test argument as a value of parameter type t.
func argValue(raw json.RawMessage, t ast.Type) (interp.Value, error) {
	decode := func(v any) error {
		if bytes.Equal(bytes.TrimSpace(raw), []byte("null")) || json.Unmarshal(raw, v) != nil {
			return fmt.Errorf("%s does not fit %s", raw, t)
		}
		return nil
	}
	switch t.String() {
	case "int":
		var n int64
		if err := decode(&n); err != nil {
			return nil, err
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return nil, fmt.Errorf("%d overflows int", n)
		}
		return n, nil
	case "double":
		var f float64
		if err := decode(&f); err != nil {
			return nil, err
		}
		return f, nil
	case "String":
		var s string
		if err := decode(&s); err != nil {
			return nil, err
		}
		return s, nil
	case "int[]", "double[]":
		var elems []json.RawMessage
		if err := decode(&elems); err != nil {
			return nil, err
		}
		arr := &interp.Array{Elem: t.Name, Elems: make([]interp.Value, len(elems))}
		for i, e := range elems {
			v, err := argValue(e, ast.Type{Name: t.Name})
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			arr.Elems[i] = v
		}
		return arr, nil
	}
	return nil, fmt.Errorf("parameter type %s is not supported in tests", t)
}
