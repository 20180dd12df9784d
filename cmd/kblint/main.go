// Command kblint validates instructor-authored knowledge-base JSON before it
// reaches the grading service. Two file shapes are accepted, distinguished by
// the first JSON token:
//
//   - a pattern list (top-level array, kbdump's output): every pattern must
//     compile (types, templates, edges, the Vars(r̂) ⊆ Vars(r) rule of
//     Definition 4), and optional probe files let authors check that a
//     pattern matches the code they intend;
//   - an assignment definition (top-level object, the files semfeedd
//     hot-reloads): every pattern and group use and every constraint's
//     Pi/Pj/Supporting/node references must resolve against the KB, inline
//     patterns must actually be referenced somewhere (no orphans), and no
//     constraint may relate a pattern to itself. A file with synth, tests
//     and paper sections is also run: the reference must pass its suite,
//     every recorded want must be the reference's output, and |S| must
//     equal paper.s. Fixture paths resolve against the file's directory.
//     All violations are reported, not just the first, and the exit status
//     is nonzero — so a CI step can gate definition uploads.
//
// Usage:
//
//	kblint patterns.json
//	kblint -probe Good.java -pattern array-sum patterns.json
//	kblint assignment1.json other-assignment.json
//	kbdump | kblint /dev/stdin       # the built-in catalog always lints clean
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"semfeed/internal/java/parser"
	"semfeed/internal/kb"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

func main() {
	var (
		probe       = flag.String("probe", "", "Java file to match the patterns against")
		patternName = flag.String("pattern", "", "restrict the probe to one pattern")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: kblint [-probe file.java [-pattern name]] file.json...")
		os.Exit(2)
	}

	// Assignment-definition files (top-level JSON objects) lint through the
	// cross-reference path; several may be named at once.
	if flag.NArg() > 1 || isAssignmentDef(flag.Arg(0)) {
		os.Exit(lintDefs(os.Stdout, flag.Args()))
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	patterns, err := pattern.ReadAll(f)
	if err != nil {
		fatal(err)
	}

	warnings := 0
	for _, p := range patterns {
		for _, n := range p.Nodes {
			// Structural anchors (a bare variable or a wildcard condition)
			// intentionally carry no feedback; only substantive crucial
			// templates deserve a correct-feedback line.
			if n.Crucial() && n.Feedback.Correct == "" && substantive(n.Exact) {
				fmt.Printf("warn: %s/%s is a crucial anchor without correct-feedback text\n", p.Name(), n.ID)
				warnings++
			}
		}
		if p.Source.Present == "" || p.Source.Missing == "" {
			fmt.Printf("warn: %s lacks present/missing feedback\n", p.Name())
			warnings++
		}
		if len(p.Edges) == 0 && len(p.Nodes) > 1 {
			fmt.Printf("warn: %s has %d nodes but no edges — every node combination will be tried\n",
				p.Name(), len(p.Nodes))
			warnings++
		}
	}
	fmt.Printf("%d patterns compile cleanly, %d warnings\n", len(patterns), warnings)

	if *probe == "" {
		return
	}
	src, err := os.ReadFile(*probe)
	if err != nil {
		fatal(err)
	}
	unit, err := parser.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	graphs := pdg.BuildAll(unit)
	for _, p := range patterns {
		if *patternName != "" && p.Name() != *patternName {
			continue
		}
		for method, g := range graphs {
			embs := match.Find(p, g)
			if len(embs) == 0 {
				continue
			}
			fmt.Printf("%s over %s: %d embedding(s)\n", p.Name(), method, len(embs))
			for i := range embs {
				if err := match.Verify(&embs[i], g); err != nil {
					fmt.Printf("  INVALID: %v\n", err)
					continue
				}
				fmt.Printf("  %s\n", embs[i].String())
			}
		}
	}
}

// isAssignmentDef sniffs the first JSON token: definitions are objects,
// pattern lists are arrays.
func isAssignmentDef(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		b, err := r.ReadByte()
		if err != nil {
			return false
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
}

// lintDefs validates assignment-definition files and reports every violation
// — unknown pattern or group uses, constraints whose Pi/Pj/Supporting name
// patterns absent from the KB, node references that don't exist in their
// pattern, plus the structural rules of defLints and, for a definition that
// compiles, the data checks of dataLints. Returns the process exit code.
func lintDefs(w io.Writer, paths []string) int {
	violations := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kblint: %v\n", err)
			violations++
			continue
		}
		def, err := kb.ReadAssignmentDef(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", path, err)
			violations++
			continue
		}
		spec, errs := def.Compile()
		for _, e := range errs {
			fmt.Fprintf(w, "%s: %v\n", path, e)
		}
		violations += len(errs)
		structural := defLints(def)
		if spec != nil {
			structural = append(structural, dataLints(def, filepath.Dir(path))...)
		}
		for _, v := range structural {
			fmt.Fprintf(w, "%s: %s\n", path, v)
		}
		violations += len(structural)
		if spec != nil && len(structural) == 0 {
			fmt.Fprintf(w, "%s: assignment %q ok (%d methods)\n", path, def.ID, len(spec.Methods))
		}
	}
	if violations > 0 {
		fmt.Fprintf(w, "%d violation(s)\n", violations)
		return 1
	}
	return 0
}

// defLints checks the structural rules Compile cannot express as resolution
// failures:
//
//   - orphan pattern: an inline pattern that no method use, group member or
//     constraint reference ever names — dead weight that silently rots as
//     the catalog evolves;
//   - self-constraint: a binary constraint whose pi and pj name the same
//     pattern. Equality is then trivially satisfiable by any single
//     embedding matched against itself and edge existence degenerates the
//     same way, so the constraint never rejects anything.
func defLints(def *kb.AssignmentDef) []string {
	var out []string

	referenced := map[string]bool{}
	for _, g := range def.Groups {
		for _, m := range g.Members {
			referenced[m] = true
		}
	}
	for _, md := range def.Methods {
		for _, pu := range md.Patterns {
			referenced[pu.Name] = true
		}
		for i := range md.Constraints {
			c := &md.Constraints[i]
			referenced[c.Pi] = true
			referenced[c.Pj] = true
			for _, s := range c.Supporting {
				referenced[s] = true
			}
			if c.Pj != "" && c.Pi == c.Pj {
				out = append(out, fmt.Sprintf(
					"assignment %s: method %s: constraint %q relates pattern %q to itself",
					def.ID, md.Name, c.Name, c.Pi))
			}
		}
	}
	for i := range def.Patterns {
		if name := def.Patterns[i].Name; !referenced[name] {
			out = append(out, fmt.Sprintf(
				"assignment %s: orphan pattern %q is defined but never referenced",
				def.ID, name))
		}
	}
	return out
}

// dataLints checks a definition's synth, tests and paper sections against
// each other — what Compile leaves out because it runs the reference:
//
//   - the reference (choice 0 of every point) passes its own suite: it runs
//     every case without error and prints each recorded want byte for byte,
//     which implies the suite's token-wise comparison passes;
//   - |S|, the product of the option counts, equals paper.s.
//
// Fixture paths resolve against dir, the definition file's directory.
func dataLints(def *kb.AssignmentDef, dir string) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("assignment %s: ", def.ID)+fmt.Sprintf(format, args...))
	}
	if def.Synth != nil && def.Paper != nil {
		if size := def.Synth.Size(); size != def.Paper.S {
			fail("|S| = %d, but paper.s = %d", size, def.Paper.S)
		}
	}
	suite, err := def.Suite(func(p string) ([]byte, error) { return os.ReadFile(filepath.Join(dir, p)) })
	if err != nil {
		fail("%v", err)
		return out
	}
	if suite == nil {
		return out
	}
	for _, err := range suite.CheckExpected(def.Synth.Reference()) {
		fail("%v", err)
	}
	return out
}

// substantive reports whether any exact alternative is a real expression
// fragment (more than one word and not a bare wildcard regex).
func substantive(alts []string) bool {
	for _, a := range alts {
		if strings.HasPrefix(a, "re:.") {
			continue
		}
		if len(strings.Fields(strings.TrimPrefix(a, "re:"))) > 1 {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kblint: %v\n", err)
	os.Exit(1)
}
