// Package autograder is a simplified reproduction of AutoGrader (Singh et
// al., PLDI 2013) built on Sketch-style search, used as the comparison
// baseline of Section VI-C. Real AutoGrader rewrites a submission into a
// program sketch using error-model rules and asks a solver for a repair that
// is functionally equivalent to a single reference solution.
//
// Here the error-model rules are the synthetic space's choice points (they
// are the same rules the generator uses, following Singh et al.'s own
// formulation), so the sketch search enumerates combinations of rule
// applications and checks functional equivalence against the reference by
// bounded testing. This preserves the baseline's reported behaviour:
//
//   - search cost grows combinatorially with the number of repairs (the
//     paper: "performance degrades considerably after four or more repairs");
//   - equivalence is checked on bounded inputs only;
//   - console printing is unsupported unless the print-concatenation
//     workaround is enabled, and output order always matters;
//   - infinite loops in candidate programs must be cut off by a budget.
package autograder

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"semfeed/internal/functest"
	"semfeed/internal/synth"
)

// ErrPrintingUnsupported is returned for console-printing assignments when
// the concat workaround is disabled (Sketch compares return values only).
var ErrPrintingUnsupported = errors.New("autograder: assignment prints to console; Sketch compares return values (enable the concat workaround)")

// ErrNoRepair is returned when no rule combination within MaxRepairs makes
// the submission functionally equivalent to the reference.
var ErrNoRepair = errors.New("autograder: no repair found within the repair bound")

// Repair is one suggested rule application: replace the text of a choice
// site with the correct option. This mirrors AutoGrader's low-level
// line-replacement feedback.
type Repair struct {
	Site string // choice ID
	From string // submission's text at the site
	To   string // suggested replacement
}

// String renders the repair the way AutoGrader-style feedback reads.
func (r Repair) String() string {
	return fmt.Sprintf("change %q to %q (site %s)", r.From, r.To, r.Site)
}

// Stats reports search effort.
type Stats struct {
	Candidates int           // candidate programs checked
	Elapsed    time.Duration // wall time of the search
	Repairs    int           // size of the found repair set
}

// Options configure the baseline.
type Options struct {
	// MaxRepairs bounds the repair-set size (AutoGrader degrades past 4).
	MaxRepairs int
	// ConcatWorkaround rewrites console output into a returned string,
	// making print assignments comparable (order-sensitively).
	ConcatWorkaround bool
}

func (o Options) maxRepairs() int {
	if o.MaxRepairs > 0 {
		return o.MaxRepairs
	}
	return 4
}

// maxCandidates aborts runaway searches.
const maxCandidates = 2_000_000

// Grader holds the reference configuration for one assignment.
type Grader struct {
	Spec  *synth.Spec
	Tests *functest.Suite
	Opts  Options
}

// New returns an AutoGrader-style baseline for the assignment described by
// the error-model spec and bounded test inputs.
func New(spec *synth.Spec, tests *functest.Suite, opts Options) *Grader {
	return &Grader{Spec: spec, Tests: tests, Opts: opts}
}

// RepairIndex searches for the smallest set of rule applications that makes
// submission index k functionally equivalent to the reference, trying repair
// sizes 1, 2, ... like Sketch's iterative deepening.
func (g *Grader) RepairIndex(k int64) ([]Repair, Stats, error) {
	start := time.Now()
	var stats Stats
	if !g.Opts.ConcatWorkaround && printsToConsole(g.Spec.Reference()) {
		stats.Elapsed = time.Since(start)
		return nil, stats, ErrPrintingUnsupported
	}
	idx := g.Spec.Decode(k)

	// Already equivalent? (AutoGrader would report "correct".)
	if g.equivalent(idx, &stats) {
		stats.Elapsed = time.Since(start)
		return nil, stats, nil
	}

	// Sites where the submission deviates from the reference options are the
	// candidate rewrite sites; Sketch additionally explores every option at
	// each chosen site, which is what we enumerate.
	var sites []int
	for i, v := range idx {
		if v != 0 {
			sites = append(sites, i)
		}
	}
	for size := 1; size <= g.Opts.maxRepairs() && size <= len(sites); size++ {
		if found := g.searchSize(idx, sites, size, &stats); found != nil {
			repairs := make([]Repair, 0, len(found))
			for _, site := range found {
				c := g.Spec.Choices[site]
				repairs = append(repairs, Repair{
					Site: c.ID,
					From: c.Options[idx[site]],
					To:   c.Options[0],
				})
			}
			stats.Repairs = len(repairs)
			stats.Elapsed = time.Since(start)
			return repairs, stats, nil
		}
		if stats.Candidates >= maxCandidates {
			break
		}
	}
	stats.Elapsed = time.Since(start)
	return nil, stats, ErrNoRepair
}

// searchSize tries every combination of `size` deviating sites, resetting
// each chosen site to every alternative option (Sketch explores the full
// sketch hole domain, not just the reference option — we mirror that cost by
// trying all options per chosen site).
func (g *Grader) searchSize(idx []int, sites []int, size int, stats *Stats) []int {
	combo := make([]int, size)
	var rec func(start, depth int) []int
	rec = func(start, depth int) []int {
		if stats.Candidates >= maxCandidates {
			return nil
		}
		if depth == size {
			return g.tryCombo(idx, combo, stats)
		}
		for i := start; i < len(sites); i++ {
			combo[depth] = sites[i]
			if found := rec(i+1, depth+1); found != nil {
				return found
			}
		}
		return nil
	}
	return rec(0, 0)
}

// tryCombo explores all option assignments for the chosen sites and reports
// the sites when some assignment is equivalent to the reference.
func (g *Grader) tryCombo(idx []int, sitesChosen []int, stats *Stats) []int {
	candidate := append([]int(nil), idx...)
	var rec func(d int) bool
	rec = func(d int) bool {
		if stats.Candidates >= maxCandidates {
			return false
		}
		if d == len(sitesChosen) {
			return g.equivalent(candidate, stats)
		}
		site := sitesChosen[d]
		for opt := 0; opt < len(g.Spec.Choices[site].Options); opt++ {
			if opt == idx[site] {
				continue // not a rewrite
			}
			candidate[site] = opt
			if rec(d + 1) {
				return true
			}
		}
		candidate[site] = idx[site]
		return false
	}
	if rec(0) {
		return append([]int(nil), sitesChosen...)
	}
	return nil
}

// equivalent checks bounded functional equivalence with the reference.
func (g *Grader) equivalent(idx []int, stats *Stats) bool {
	stats.Candidates++
	src := g.Spec.RenderIdx(idx)
	verdict, err := g.Tests.RunSource(src)
	return err == nil && verdict.Pass
}

// printsToConsole reports whether the program writes to System.out.
func printsToConsole(src string) bool {
	return strings.Contains(src, "System.out.")
}
