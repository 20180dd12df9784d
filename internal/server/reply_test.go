package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/store"
)

// TestGradeReplyBytes holds the spliced /v1/grade reply to writeJSON's
// encoding of the GradeResponse, byte for byte: every report of the seed-1
// sample of every assignment, analyzers on, with client IDs that need JSON
// and HTML escaping, and both values of cached.
func TestGradeReplyBytes(t *testing.T) {
	ids := []string{
		"",
		`<a href="x">&amp;\</a>`,
		"line\u2028para\u2029end",
		"étudiant-42 学生",
		"tab\tnul\x00",
	}
	grader := core.NewGrader(core.Options{Analyzers: analysis.DefaultDriver()})
	replies := 0
	for _, a := range assignments.All() {
		for _, k := range a.Synth.SampleSeed(30, 1) {
			rep, err := grader.Grade(a.Synth.Render(k), a.Spec)
			if err != nil {
				continue // a parse error has no report to reply with
			}
			report, err := marshalReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				for _, cached := range []bool{false, true} {
					want := httptest.NewRecorder()
					writeJSON(want, http.StatusOK, GradeResponse{
						Assignment: a.ID, ID: id, KBVersion: "builtin", Cached: cached, Report: report,
					})
					got := httptest.NewRecorder()
					writeGradeReply(got, gradeHead{Assignment: a.ID, ID: id, KBVersion: "builtin", Cached: cached}, report)
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s sample %d id %q cached %v: spliced reply differs\n got: %s\nwant: %s",
							a.ID, k, id, cached, got.Body.Bytes(), want.Body.Bytes())
					}
					if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
						t.Fatalf("status %d, Content-Type %q", got.Code, got.Header().Get("Content-Type"))
					}
					if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
						t.Fatalf("Content-Length %s, body %d bytes", cl, got.Body.Len())
					}
					replies++
				}
			}
		}
	}
	if replies == 0 {
		t.Fatal("no report compared")
	}
}

// TestGradeHitServesStoredBytes: a store hit writes the stored bytes as they
// are, without compacting or re-encoding them.
func TestGradeHitServesStoredBytes(t *testing.T) {
	src := assignments.Get("assignment1").Reference()
	mem := store.NewMemory(8)
	stored := `{"score": 1}`
	mem.Put(store.NewKey("assignment1", "builtin", src), []byte(stored))
	ts := httptest.NewServer(New(Config{Registry: testRegistry(t), Store: mem}).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "assignment1", Source: src})
	want := `{"assignment":"assignment1","kb_version":"builtin","cached":true,"report":` + stored + "}\n"
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("status %d, reply %s\nwant %s", resp.StatusCode, body, want)
	}
}

// TestGradeResubmitReply: the hit reply to a resubmission is the first
// reply with cached flipped, sent with an exact Content-Length rather than
// chunked.
func TestGradeResubmitReply(t *testing.T) {
	ts := httptest.NewServer(New(Config{Registry: testRegistry(t), Store: store.NewMemory(4096)}).Handler())
	defer ts.Close()

	req := GradeRequest{Assignment: "assignment1", ID: "sub-1", Source: assignments.Get("assignment1").Reference()}
	var replies [2][]byte
	for i := range replies {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i+1, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("POST %d: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				i+1, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		replies[i] = body
	}
	want := bytes.Replace(replies[0], []byte(`"cached":false`), []byte(`"cached":true`), 1)
	if bytes.Equal(want, replies[0]) || !bytes.Equal(replies[1], want) {
		t.Fatalf("hit reply is not the graded reply with cached:true\ngraded: %s\n   hit: %s", replies[0], replies[1])
	}
}

// TestGradeRegradesCorruptDiskEntry: a disk entry damaged outside the store
// is a miss, so the next POST regrades it and rewrites the entry, rather
// than answering 200 with a body that is not JSON.
func TestGradeRegradesCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Registry: testRegistry(t), Store: disk}).Handler())
	defer ts.Close()

	src := assignments.Get("assignment1").Reference()
	post := func() GradeResponse {
		t.Helper()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "assignment1", Source: src})
		var gr GradeResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &gr) != nil {
			t.Fatalf("status %d, reply %q", resp.StatusCode, body)
		}
		return gr
	}
	if post().Cached {
		t.Fatal("first POST should grade")
	}
	path := filepath.Join(dir, "assignment1", "builtin", url.PathEscape(store.SourceHash(src)))
	if err := os.WriteFile(path, []byte(`{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	regraded := post()
	if regraded.Cached {
		t.Fatal("corrupt entry served as a hit")
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, regraded.Report) {
		t.Fatalf("entry not rewritten: %q, %v", onDisk, err)
	}
	if hit := post(); !hit.Cached || !bytes.Equal(hit.Report, regraded.Report) {
		t.Fatalf("the rewritten entry should serve the next POST: cached %v", hit.Cached)
	}
}
