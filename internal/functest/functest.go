// Package functest is the functional-testing harness used as ground truth in
// the evaluation (column T of Table I and the discrepancy analysis). It runs
// predefined test cases through the interpreter and compares console output
// token-wise.
package functest

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
)

// Case is one functional test: inputs plus the expected console output and,
// when CompareReturn is set, the expected return value (for assignments whose
// method returns instead of printing).
type Case struct {
	Name          string
	Args          []interp.Value
	Stdin         string
	Files         map[string]string
	Want          string
	CompareReturn bool
	WantReturn    interp.Value
}

// Suite is the functional-test suite of one assignment.
type Suite struct {
	Entry    string // method to invoke
	Cases    []Case
	MaxSteps int // per-case step budget (default interp's)
}

// Failure describes one failing case.
type Failure struct {
	Case string
	Got  string
	Want string
	Err  error
}

// String renders the failure.
func (f Failure) String() string {
	if f.Err != nil {
		return fmt.Sprintf("%s: %v", f.Case, f.Err)
	}
	return fmt.Sprintf("%s: got %q, want %q", f.Case, f.Got, f.Want)
}

// Verdict is the outcome of running a suite over a submission.
type Verdict struct {
	Pass     bool
	Failures []Failure
	// InfiniteLoop is set when any case hit the step budget — the failure
	// mode dynamic graders cannot distinguish from slowness.
	InfiniteLoop bool
	// Cases counts the test cases executed, Steps the interpreter steps they
	// were charged across all cases, failing cases included (a case that
	// exhausts its budget adds MaxSteps+1, also when the interpreter
	// fast-forwards its loop to the limit), and Skipped the part of Steps
	// fast-forward charged without executing (the sum of Result.Skipped):
	// the work counters behind the functest phase's cost attribution
	// (semfeed_phase_ns{phase="functest"}).
	Cases   int
	Steps   int
	Skipped int
}

// Run executes the suite against a parsed submission. The unit is compiled
// once and every case executes the compiled program; callers that already
// hold a compiled Program should use RunProgram directly.
func (s *Suite) Run(unit *ast.CompilationUnit) Verdict {
	return s.RunProgram(interp.Compile(unit))
}

// RunProgram executes the suite against a compiled submission. This is the
// hot path of batch grading: the per-case cost is pure execution, with no
// tree walking or recompilation.
func (s *Suite) RunProgram(prog *interp.Program) Verdict {
	return s.runCases(func(args []interp.Value, cfg interp.Config) (*interp.Result, error) {
		return prog.Run(s.Entry, args, cfg)
	})
}

// RunTreeWalk executes the suite on the tree-walking reference engine. It is
// a test oracle only: the reference side of BenchmarkInterpTreeWalk and of
// differential testing against the compiled engine; grading uses Run or
// RunProgram.
func (s *Suite) RunTreeWalk(unit *ast.CompilationUnit) Verdict {
	return s.runCases(func(args []interp.Value, cfg interp.Config) (*interp.Result, error) {
		return interp.RunTreeWalk(unit, s.Entry, args, cfg)
	})
}

// runCases drives every case through the given executor and folds the
// results into a Verdict; the comparison logic is engine-independent.
func (s *Suite) runCases(run func([]interp.Value, interp.Config) (*interp.Result, error)) Verdict {
	v := Verdict{Pass: true}
	for _, c := range s.Cases {
		cfg := interp.Config{Stdin: c.Stdin, Files: c.Files, MaxSteps: s.MaxSteps}
		res, err := run(cloneArgs(c.Args), cfg)
		v.Cases++
		if res != nil {
			v.Steps += res.Steps
			v.Skipped += res.Skipped
		}
		if err != nil {
			v.Pass = false
			v.Failures = append(v.Failures, Failure{Case: c.Name, Err: err})
			if errors.Is(err, interp.ErrStepLimit) {
				v.InfiniteLoop = true
			}
			continue
		}
		if !OutputEqual(res.Stdout, c.Want) {
			v.Pass = false
			v.Failures = append(v.Failures, Failure{Case: c.Name, Got: res.Stdout, Want: c.Want})
			continue
		}
		if c.CompareReturn && !interp.DeepEqual(res.Return, c.WantReturn) {
			v.Pass = false
			v.Failures = append(v.Failures, Failure{
				Case: c.Name,
				Got:  "return " + interp.Snapshot(res.Return),
				Want: "return " + interp.Snapshot(c.WantReturn),
			})
		}
	}
	return v
}

// ProgramCache memoizes compiled programs across RunSource calls by source
// hash. Synthetic submission spaces and batch re-grades repeat sources
// heavily, so most lookups skip both the parser and the compiler.
var ProgramCache = interp.NewCache(0)

// RunSource executes the suite against submission source code. Repeated
// sources hit the package-level ProgramCache and skip parsing and
// compilation entirely.
func (s *Suite) RunSource(src string) (Verdict, error) {
	if prog := ProgramCache.Lookup(src); prog != nil {
		return s.RunProgram(prog), nil
	}
	unit, err := parser.Parse(src)
	if err != nil {
		return Verdict{}, err
	}
	prog, _ := ProgramCache.CompileCached(src, unit)
	return s.RunProgram(prog), nil
}

// cloneArgs deep-copies argument values so submissions that mutate their
// input arrays do not leak state between cases.
func cloneArgs(args []interp.Value) []interp.Value {
	out := make([]interp.Value, len(args))
	for i, a := range args {
		out[i] = cloneValue(a)
	}
	return out
}

func cloneValue(v interp.Value) interp.Value {
	arr, ok := v.(*interp.Array)
	if !ok || arr == nil {
		return v
	}
	// Bulk-copy the element slice, then re-clone only nested arrays: flat
	// primitive arrays (the overwhelmingly common case) clone with a single
	// copy instead of a per-element interface round trip.
	cp := &interp.Array{Elem: arr.Elem, Elems: make([]interp.Value, len(arr.Elems))}
	copy(cp.Elems, arr.Elems)
	for i, e := range cp.Elems {
		if inner, ok := e.(*interp.Array); ok && inner != nil {
			cp.Elems[i] = cloneValue(inner)
		}
	}
	return cp
}

// OutputEqual compares console outputs token-wise: whitespace runs are
// insignificant and numeric tokens compare numerically (so 3 == 3.0).
// Order is significant, exactly like the paper's functional tests.
//
// It runs once per test case inside the timed grading loop, so the common
// all-ASCII comparison walks both strings with two cursors instead of
// allocating the token slices strings.Fields would build.
func OutputEqual(got, want string) bool {
	// Non-ASCII output defers to the reference tokenization so Unicode
	// whitespace splits exactly as strings.Fields does.
	if !asciiOnly(got) || !asciiOnly(want) {
		return outputEqualSlow(got, want)
	}
	for {
		gt, grest, gok := nextField(got)
		wt, wrest, wok := nextField(want)
		if !gok || !wok {
			return gok == wok
		}
		if !tokenEqual(gt, wt) {
			return false
		}
		got, want = grest, wrest
	}
}

func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func outputEqualSlow(got, want string) bool {
	g := strings.Fields(got)
	w := strings.Fields(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if !tokenEqual(g[i], w[i]) {
			return false
		}
	}
	return true
}

// nextField scans the next whitespace-delimited token of an all-ASCII
// string; ok=false means end of input.
func nextField(s string) (tok, rest string, ok bool) {
	i := 0
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	if i == len(s) {
		return "", "", false
	}
	j := i
	for j < len(s) && !asciiSpace(s[j]) {
		j++
	}
	return s[i:j], s[j:], true
}

func asciiSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

func tokenEqual(a, b string) bool {
	if a == b {
		return true
	}
	fa, errA := strconv.ParseFloat(strings.TrimSuffix(a, ","), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSuffix(b, ","), 64)
	if errA == nil && errB == nil {
		return fa == fb && strings.HasSuffix(a, ",") == strings.HasSuffix(b, ",")
	}
	return false
}

// FillExpected runs the reference solution over every case and records its
// output as the expected one. It returns an error if the reference fails.
func (s *Suite) FillExpected(referenceSrc string) error {
	unit, err := parser.Parse(referenceSrc)
	if err != nil {
		return fmt.Errorf("functest: reference does not parse: %w", err)
	}
	prog := interp.Compile(unit)
	for i := range s.Cases {
		c := &s.Cases[i]
		cfg := interp.Config{Stdin: c.Stdin, Files: c.Files, MaxSteps: s.MaxSteps}
		res, err := prog.Run(s.Entry, cloneArgs(c.Args), cfg)
		if err != nil {
			return fmt.Errorf("functest: reference failed case %s: %w", c.Name, err)
		}
		c.Want = res.Stdout
		if c.CompareReturn {
			c.WantReturn = res.Return
		}
	}
	return nil
}
