// Package kb is the knowledge base of the paper's Section III/VI artifact:
// twenty-four unique, reusable patterns plus the per-assignment pattern
// selections and constraint sets for the twelve assignments of Table I.
//
// The knowledge base is data, embedded from builtin/:
//
//   - catalog.json: the 24 patterns, in pattern.WriteAll's format;
//   - extensions.json: the Section VII extension patterns, same format;
//   - assignments/<id>.json: one AssignmentDef per Table I assignment, the
//     same file format semfeedd hot-loads from its KB directory.
//
// Builtin compiles an assignment file through ReadAssignmentDef and
// AssignmentDef.Compile, the path every uploaded definition takes.
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
	"sort"

	"semfeed/internal/core"
	"semfeed/internal/pattern"
)

//go:embed builtin
var builtin embed.FS

// catalog holds the 24 unique patterns, compiled once at init.
var catalog = map[string]*pattern.Compiled{}

func init() {
	for _, p := range mustReadPatterns("builtin/catalog.json") {
		if _, dup := catalog[p.Name()]; dup {
			panic("kb: duplicate pattern " + p.Name())
		}
		catalog[p.Name()] = p
	}
	for _, p := range mustReadPatterns("builtin/extensions.json") {
		if _, dup := extensions[p.Name()]; dup {
			panic("kb: duplicate extension pattern " + p.Name())
		}
		if _, dup := catalog[p.Name()]; dup {
			panic("kb: extension pattern shadows catalog pattern " + p.Name())
		}
		extensions[p.Name()] = p
	}
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
// ReadAssignmentDef and Compile. The files are compiled into the binary, so
// an unknown id or any violation is a bug: Builtin panics on it.
func Builtin(id string) (*AssignmentDef, *core.AssignmentSpec) {
	data, ok := AssignmentJSON(id)
	if !ok {
		panic("kb: no builtin assignment " + id)
	}
	def, err := ReadAssignmentDef(bytes.NewReader(data))
	if err != nil {
		panic(fmt.Sprintf("kb: builtin %s: %v", id, err))
	}
	if def.ID != id {
		panic(fmt.Sprintf("kb: builtin %s: file holds assignment %q", id, def.ID))
	}
	spec, errs := def.Compile()
	if len(errs) > 0 {
		panic(fmt.Sprintf("kb: builtin %s: %v", id, errors.Join(errs...)))
	}
	return def, spec
}

// Pattern returns a compiled pattern from the catalog by name; it panics on
// unknown names (the catalog is static).
func Pattern(name string) *pattern.Compiled {
	p, ok := catalog[name]
	if !ok {
		panic("kb: unknown pattern " + name)
	}
	return p
}

// Registry returns the full catalog keyed by name (for constraint compilation).
func Registry() map[string]*pattern.Compiled { return catalog }

// Names returns the catalog's pattern names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
