// Package kb is the knowledge base of the paper's Section III/VI artifact:
// twenty-four unique, reusable patterns plus the twelve assignments of
// Table I, each defined by one file.
//
// The knowledge base is data, embedded from builtin/:
//
//   - catalog.json: the 24 patterns, a JSON array in pattern.ReadAll's format;
//   - extensions.json: the Section VII extension patterns, same format;
//   - assignments/<id>.json: one AssignmentDef per Table I assignment, the
//     same file format semfeedd hot-loads from its KB directory. Besides its
//     patterns and constraints, each file holds the assignment's course, its
//     synthetic submission space (synth), its functional-test suite (tests)
//     and its published Table I row (paper);
//   - fixtures/: the files those suites read, named by path from tests.files;
//   - strategies/<name>.json: the Section VII strategy bundles, each an
//     AssignmentDef with one method (Strategy).
//
// Nothing compiles at package init. The pattern files compile on first use;
// Builtin compiles an assignment file through ReadAssignmentDef,
// AssignmentDef.Compile and AssignmentDef.Suite, the path every uploaded
// definition takes.
//
// Pattern variables are globally unique across patterns so that any two
// patterns can be correlated by containment constraints (Definition 10
// requires pairwise-disjoint variable sets).
package kb

import (
	"bytes"
	"embed"
	"errors"
	"fmt"
	"path"
	"sort"
	"sync"

	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/pattern"
)

//go:embed builtin
var builtin embed.FS

var (
	loadPatterns sync.Once
	catalog      map[string]*pattern.Compiled // the 24 published patterns
	extensions   map[string]*pattern.Compiled // the Section VII extensions
)

// patterns compiles the embedded pattern files on first use and returns the
// catalog and the extension patterns, keyed by name.
func patterns() (cat, ext map[string]*pattern.Compiled) {
	loadPatterns.Do(func() {
		catalog = map[string]*pattern.Compiled{}
		for _, p := range mustReadPatterns("builtin/catalog.json") {
			if _, dup := catalog[p.Name()]; dup {
				panic("kb: duplicate pattern " + p.Name())
			}
			catalog[p.Name()] = p
		}
		extensions = map[string]*pattern.Compiled{}
		for _, p := range mustReadPatterns("builtin/extensions.json") {
			if _, dup := extensions[p.Name()]; dup {
				panic("kb: duplicate extension pattern " + p.Name())
			}
			if _, dup := catalog[p.Name()]; dup {
				panic("kb: extension pattern shadows catalog pattern " + p.Name())
			}
			extensions[p.Name()] = p
		}
	})
	return catalog, extensions
}

func mustReadPatterns(path string) []*pattern.Compiled {
	ps, err := pattern.ReadAll(bytes.NewReader(mustRead(path)))
	if err != nil {
		panic(fmt.Sprintf("kb: %s: %v", path, err))
	}
	return ps
}

func mustRead(path string) []byte {
	b, err := builtin.ReadFile(path)
	if err != nil {
		panic("kb: " + err.Error())
	}
	return b
}

// CatalogJSON returns the embedded catalog file, byte for byte.
func CatalogJSON() []byte { return mustRead("builtin/catalog.json") }

// AssignmentJSON returns the embedded definition file of a builtin
// assignment, byte for byte; ok is false for an unknown id.
func AssignmentJSON(id string) (data []byte, ok bool) {
	data, err := builtin.ReadFile("builtin/assignments/" + id + ".json")
	return data, err == nil
}

// Builtin compiles the embedded definition of a builtin assignment through
// ReadAssignmentDef, Compile and Suite, which reads the fixtures the file
// names from the embedded tree. The files are compiled into the binary, so
// an unknown id or any violation is a bug: Builtin panics on it. Nothing
// runs the reference: the recorded outputs are data, which the assignments
// tests and kblint re-derive.
func Builtin(id string) (*AssignmentDef, *core.AssignmentSpec, *functest.Suite) {
	data, ok := AssignmentJSON(id)
	if !ok {
		panic("kb: no builtin assignment " + id)
	}
	def, spec := mustCompile("assignments/"+id, data)
	tests, err := def.Suite(func(p string) ([]byte, error) {
		return builtin.ReadFile(path.Join("builtin/assignments", p))
	})
	if err != nil {
		panic(fmt.Sprintf("kb: builtin %s: %v", id, err))
	}
	return def, spec, tests
}

// Strategy compiles the embedded strategy bundle builtin/strategies/<name>.json
// (the paper's Section VII future work): a definition with one method whose
// pattern uses, groups and constraints core.MethodSpec.Apply adds to any
// method, enforcing one algorithmic approach wholesale. It panics on an
// unknown name.
func Strategy(name string) core.Strategy {
	data, err := builtin.ReadFile("builtin/strategies/" + name + ".json")
	if err != nil {
		panic("kb: unknown strategy " + name)
	}
	def, spec := mustCompile("strategies/"+name, data)
	if len(spec.Methods) != 1 {
		panic(fmt.Sprintf("kb: strategy %s has %d methods, want 1", name, len(spec.Methods)))
	}
	m := spec.Methods[0]
	return core.Strategy{
		Name:        def.ID,
		Description: def.Description,
		Patterns:    m.Patterns,
		Groups:      m.Groups,
		Constraints: m.Constraints,
	}
}

// mustCompile reads and compiles the embedded definition file builtin/<name>.json,
// whose id must be its base name, panicking on any violation.
func mustCompile(name string, data []byte) (*AssignmentDef, *core.AssignmentSpec) {
	def, err := ReadAssignmentDef(bytes.NewReader(data))
	if err != nil {
		panic(fmt.Sprintf("kb: builtin %s: %v", name, err))
	}
	if def.ID != path.Base(name) {
		panic(fmt.Sprintf("kb: builtin %s: file holds %q", name, def.ID))
	}
	spec, errs := def.Compile()
	if len(errs) > 0 {
		panic(fmt.Sprintf("kb: builtin %s: %v", name, errors.Join(errs...)))
	}
	return def, spec
}

// Pattern returns a compiled pattern from the catalog by name; it panics on
// unknown names (the catalog is static).
func Pattern(name string) *pattern.Compiled {
	cat, _ := patterns()
	p, ok := cat[name]
	if !ok {
		panic("kb: unknown pattern " + name)
	}
	return p
}

// Registry returns the full catalog keyed by name (for constraint compilation).
func Registry() map[string]*pattern.Compiled {
	cat, _ := patterns()
	return cat
}

// Names returns the catalog's pattern names, sorted.
func Names() []string { return sortedNames(Registry()) }

func sortedNames(m map[string]*pattern.Compiled) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
