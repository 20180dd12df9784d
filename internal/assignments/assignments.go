// Package assignments loads the twelve real-world assignments of Table I
// from their knowledge-base definition files (kb.Builtin). One file holds
// everything an assignment is: its patterns and constraints, its synthetic
// submission space (choice points encoding the error model), its
// functional-test suite with the reference's recorded outputs, which serves
// as ground truth, and the row the paper publishes for it. This package
// holds no assignment data of its own.
//
// Nothing is built at package init: All and Get compile each assignment on
// first use, once, and are safe for concurrent callers.
package assignments

import (
	"sync"

	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/kb"
	"semfeed/internal/synth"
)

// Assignment bundles everything needed to reproduce one Table I row.
type Assignment struct {
	ID          string
	Course      string
	Description string
	Entry       string
	Synth       *synth.Spec
	Tests       *functest.Suite
	Spec        *core.AssignmentSpec
	Paper       kb.PaperRow
}

// Reference renders the canonical correct solution.
func (a *Assignment) Reference() string { return a.Synth.Reference() }

// tableI lists the builtin assignments in Table I order.
var tableI = [...]string{
	"assignment1",
	"esc-LAB-3-P1-V1",
	"esc-LAB-3-P2-V1",
	"esc-LAB-3-P2-V2",
	"esc-LAB-3-P3-V1",
	"esc-LAB-3-P3-V2",
	"esc-LAB-3-P4-V1",
	"esc-LAB-3-P4-V2",
	"mitx-derivatives",
	"mitx-polynomials",
	"rit-all-g-medals",
	"rit-medals-by-ath",
}

var loaded [len(tableI)]struct {
	once sync.Once
	a    *Assignment
}

// load builds assignment i of tableI on first use.
func load(i int) *Assignment {
	l := &loaded[i]
	l.once.Do(func() {
		def, spec, tests := kb.Builtin(tableI[i])
		if def.Synth == nil || tests == nil || def.Paper == nil {
			panic("assignments: " + def.ID + " lacks a synth, tests or paper section")
		}
		l.a = &Assignment{
			ID:          def.ID,
			Course:      def.Course,
			Description: def.Description,
			Entry:       tests.Entry,
			Synth:       def.Synth,
			Tests:       tests,
			Spec:        spec,
			Paper:       *def.Paper,
		}
	})
	return l.a
}

// All returns every assignment in Table I order.
func All() []*Assignment {
	out := make([]*Assignment, len(tableI))
	for i := range tableI {
		out[i] = load(i)
	}
	return out
}

// Get returns an assignment by ID, or nil.
func Get(id string) *Assignment {
	for i, v := range tableI {
		if v == id {
			return load(i)
		}
	}
	return nil
}
