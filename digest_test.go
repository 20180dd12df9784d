package semfeed_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

var updateDigest = flag.Bool("update", false, "re-record testdata/report_digest.txt")

const digestFile = "testdata/report_digest.txt"

// TestReportDigest pins the full grading output over the seed-1 Table I
// sample of every assignment: one SHA-256 per assignment over each
// submission's sample index, parse error, Matched, Score, MaxScore, sorted
// Bindings and every comment's method, kind, source, status, message and
// details. Timings and Stats are left out. A change to any feedback string,
// status, score or binding fails the row it touches; `go test -run
// TestReportDigest -update .` re-records the file, and the change that does
// so says why.
func TestReportDigest(t *testing.T) {
	grader := core.NewGrader(core.Options{})
	var got []string
	for _, a := range assignments.All() {
		h := sha256.New()
		sample := a.Synth.SampleSeed(200, 1)
		for _, k := range sample {
			rep, err := grader.Grade(a.Synth.Render(k), a.Spec)
			writeReport(h, k, rep, err)
		}
		got = append(got, fmt.Sprintf("%s %d %x", a.ID, len(sample), h.Sum(nil)))
	}

	if *updateDigest {
		body := "# assignment submissions sha256 — see TestReportDigest\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigest(t)
	for _, line := range got {
		id := strings.Fields(line)[0]
		if w, ok := want[id]; !ok {
			t.Errorf("%s: no recorded digest", id)
		} else if w != line {
			t.Errorf("%s: report digest changed\n got: %s\nwant: %s", id, line, w)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s: recorded digest for an unknown assignment", id)
	}
}

// TestSampleVerdictParity runs the first 20 seed-1 sample submissions of
// every assignment through the functional tests on the compiled engine and
// on the tree-walking oracle; the verdicts must agree in every field,
// failure strings and the steps of failing cases included.
func TestSampleVerdictParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs step-limited submissions on the tree-walker")
	}
	for _, a := range assignments.All() {
		for _, k := range a.Synth.SampleSeed(200, 1)[:20] {
			checkVerdictParity(t, a, k)
		}
	}
}

// TestStepLimitVerdictParity holds the compiled engine's loop fast-forward
// to the tree-walker over the population it changes: every seed-1 sample
// submission of the four interpreter-bound rows, which include all their
// step-limited ones and, esc-LAB-3-P2-V2's space being smaller than the
// sample, all 144 of that row. Over each row's step-limited submissions,
// the compiled engine must execute at most 5% of the steps it charges.
func TestStepLimitVerdictParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs step-limited submissions on the tree-walker")
	}
	for _, id := range interpHeavy {
		a := assignments.Get(id)
		limited, charged, skipped := 0, 0, 0
		for _, k := range a.Synth.SampleSeed(200, 1) {
			if v := checkVerdictParity(t, a, k); v.InfiniteLoop {
				limited++
				charged += v.Steps
				skipped += v.Skipped
			}
		}
		executed := charged - skipped
		t.Logf("%s: %d step-limited submissions, %d steps charged, %d executed", id, limited, charged, executed)
		if limited == 0 {
			t.Errorf("%s: no step-limited submission in the sample", id)
		}
		if executed*20 > charged {
			t.Errorf("%s: executed %d of %d charged steps, want at most 5%%", id, executed, charged)
		}
	}
}

// checkVerdictParity runs one sample submission's functional tests on the
// compiled engine and on the tree-walking oracle; the verdicts must agree
// in every field, failure strings and the steps of failing cases included.
// It returns the compiled engine's verdict (zero for a source that does not
// parse).
func checkVerdictParity(t *testing.T, a *assignments.Assignment, k int64) functest.Verdict {
	t.Helper()
	unit, err := parser.Parse(a.Synth.Render(k))
	if err != nil {
		return functest.Verdict{}
	}
	got := a.Tests.RunProgram(interp.Compile(unit))
	want := a.Tests.RunTreeWalk(unit)
	if got.Pass != want.Pass || got.InfiniteLoop != want.InfiniteLoop || got.Cases != want.Cases || got.Steps != want.Steps {
		t.Errorf("%s sample %d: compiled %+v, tree-walk %+v", a.ID, k, got, want)
	} else if g, w := fmt.Sprint(got.Failures), fmt.Sprint(want.Failures); g != w {
		t.Errorf("%s sample %d: failures differ\ncompiled:  %s\ntree-walk: %s", a.ID, k, g, w)
	}
	return got
}

// writeReport feeds one graded submission to h. Strings are quoted, so no
// field can run into the next.
func writeReport(h hash.Hash, k int64, rep *core.Report, err error) {
	fmt.Fprintf(h, "sample %d\n", k)
	if err != nil {
		fmt.Fprintf(h, "error %q\n", err.Error())
		return
	}
	fmt.Fprintf(h, "matched %t score %s max %s\n", rep.Matched,
		strconv.FormatFloat(rep.Score, 'g', -1, 64), strconv.FormatFloat(rep.MaxScore, 'g', -1, 64))
	methods := make([]string, 0, len(rep.Bindings))
	for m := range rep.Bindings {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		fmt.Fprintf(h, "binding %q %q\n", m, rep.Bindings[m])
	}
	for _, c := range rep.Comments {
		fmt.Fprintf(h, "comment %q %q %q %s %q %q\n", c.Method, c.Kind, c.Source, c.Status, c.Message, c.Details)
	}
}

// readDigest loads the recorded lines keyed by assignment ID.
func readDigest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[strings.Fields(line)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
