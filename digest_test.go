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
