package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/store"
)

// testRegistry returns a registry serving the built-in assignment1.
func testRegistry(t testing.TB) *Registry {
	t.Helper()
	a := assignments.Get("assignment1")
	if a == nil {
		t.Fatal("builtin assignment1 missing")
	}
	r := NewRegistry("", nil)
	r.AddBuiltin(a.ID, a.Spec)
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	return r
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestGradeEndpoint(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t), Store: store.NewMemory(4096)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ref := assignments.Get("assignment1").Reference()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", ID: "sub-1", Source: ref,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Cached || gr.ID != "sub-1" || gr.KBVersion != "builtin" {
		t.Fatalf("unexpected envelope: %+v", gr)
	}
	var report core.Report
	if err := json.Unmarshal(gr.Report, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Matched || report.Score != report.MaxScore {
		t.Fatalf("reference should grade perfect: %v/%v matched=%v", report.Score, report.MaxScore, report.Matched)
	}

	// Identical resubmission: served from the result cache.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", ID: "sub-2", Source: ref,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr2 GradeResponse
	if err := json.Unmarshal(body, &gr2); err != nil {
		t.Fatal(err)
	}
	if !gr2.Cached {
		t.Fatal("identical resubmission should hit the result cache")
	}
	if !bytes.Equal(gr.Report, gr2.Report) {
		t.Fatal("cached report differs from the original")
	}
}

// TestNoStoreRegradesResubmission pins that a nil Config.Store means no
// result store: an identical resubmission is graded again, not answered
// from a default store. semfeedd passes nil for -cache 0 and -cache -1.
func TestNoStoreRegradesResubmission(t *testing.T) {
	ts := httptest.NewServer(New(Config{Registry: testRegistry(t)}).Handler())
	defer ts.Close()
	req := GradeRequest{Assignment: "assignment1", Source: assignments.Get("assignment1").Reference()}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: status %d: %s", i, resp.StatusCode, body)
		}
		var gr GradeResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatal(err)
		}
		if gr.Cached {
			t.Fatalf("submission %d answered \"cached\": true with no result store", i)
		}
	}
}

func TestGradeErrors(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unknown assignment.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "nope", Source: "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown assignment: status %d", resp.StatusCode)
	}
	// Unparseable Java.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "assignment1", Source: "not java"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("parse failure: status %d: %s", resp.StatusCode, body)
	}
	// Malformed request body.
	r, err := ts.Client().Post(ts.URL+"/v1/grade", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", r.StatusCode)
	}
	// GET on a POST endpoint.
	r, err = ts.Client().Get(ts.URL + "/v1/grade")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", r.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t), Store: store.NewMemory(4096)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := assignments.Get("assignment1")
	var breq BatchRequest
	breq.Assignment = "assignment1"
	for _, k := range a.Synth.Sample(4) {
		breq.Submissions = append(breq.Submissions, struct {
			ID     string `json:"id,omitempty"`
			Source string `json:"source"`
		}{ID: fmt.Sprintf("s%d", k), Source: a.Synth.Render(k)})
	}
	// One broken submission fails alone.
	breq.Submissions = append(breq.Submissions, struct {
		ID     string `json:"id,omitempty"`
		Source string `json:"source"`
	}{ID: "broken", Source: "not java"})

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Graded != 4 || br.Failed != 1 || len(br.Results) != 5 {
		t.Fatalf("unexpected batch outcome: %+v", br)
	}
	if br.Results[4].Error == "" || br.Results[4].Report != nil {
		t.Fatalf("broken submission should carry an error: %+v", br.Results[4])
	}

	// Resubmitting the whole batch is served from the cache.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.CacheHits != 4 {
		t.Fatalf("expected 4 cache hits on resubmission, got %d", br.CacheHits)
	}
}

// TestQueueOverflowSheds429 pins the admission-control contract: with one
// worker slot and a one-deep queue, a third concurrent request is shed
// immediately with 429 and a Retry-After hint, while the held and queued
// requests complete normally once the slot frees.
func TestQueueOverflowSheds429(t *testing.T) {
	srv := New(Config{
		Registry:      testRegistry(t),
		MaxConcurrent: 1,
		QueueDepth:    1,
		// No Store: every request must take the grading path.
	})
	hold := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.onSlotAcquired = func() {
		started <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ref := assignments.Get("assignment1").Reference()
	post := func() (int, http.Header) {
		data, _ := json.Marshal(GradeRequest{Assignment: "assignment1", Source: ref})
		resp, err := ts.Client().Post(ts.URL+"/v1/grade", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Errorf("post: %v", err)
			return 0, nil
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); c, _ := post(); codes <- c }() // takes the slot
	<-started

	wg.Add(1)
	go func() { defer wg.Done(); c, _ := post(); codes <- c }() // waits in the queue
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third request is rejected without waiting.
	code, hdr := post()
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response lacks Retry-After")
	}

	close(hold)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("held/queued request finished with %d, want 200", c)
		}
	}
}

// TestDrainCompletesInflight pins graceful shutdown: a request holding a
// grading slot when SIGTERM-equivalent Shutdown begins still completes with
// 200, readiness flips to draining, and Shutdown returns cleanly.
func TestDrainCompletesInflight(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	hold := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.onSlotAcquired = func() {
		started <- struct{}{}
		<-hold
	}
	errc, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Readiness before drain.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}

	ref := assignments.Get("assignment1").Reference()
	inflight := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(GradeRequest{Assignment: "assignment1", Source: ref})
		resp, err := http.Post(base+"/v1/grade", "application/json", bytes.NewReader(data))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request is still blocked; release it and require 200.
	close(hold)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("listener: %v", err)
	}
}

// TestRequestDeadline pins that an expired per-request deadline surfaces as
// 504 instead of an unbounded grade.
func TestRequestDeadline(t *testing.T) {
	srv := New(Config{
		Registry:       testRegistry(t),
		RequestTimeout: time.Nanosecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ref := assignments.Get("assignment1").Reference()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "assignment1", Source: ref})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// TestKBHotReloadAndCacheKeying exercises the registry poll loop end to end:
// a definition file change swaps the snapshot without restarting the server,
// and the result cache — keyed by KB version — stops serving reports graded
// under the old definition.
func TestKBHotReloadAndCacheKeying(t *testing.T) {
	dir := t.TempDir()
	defPath := filepath.Join(dir, "hot.json")
	write := func(pattern string) {
		def := fmt.Sprintf(`{
  "id": "hot",
  "methods": [
    {"name": "walk", "patterns": [{"name": %q, "count": 1}]}
  ]
}`, pattern)
		if err := os.WriteFile(defPath, []byte(def), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seq-even-access")

	reg := NewRegistry(dir, t.Logf)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	reg.Start(5 * time.Millisecond)
	defer reg.Stop()

	srv := New(Config{Registry: reg, Store: store.NewMemory(4096)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A stride-2 walk does not satisfy seq-even-access (no parity check).
	src := `void walk(int[] a) {
  int i = 0;
  while (i < a.length) {
    System.out.println(a[i]);
    i += 2;
  }
}`
	grade := func() GradeResponse {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "hot", Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var gr GradeResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatal(err)
		}
		return gr
	}
	score := func(gr GradeResponse) float64 {
		var rep core.Report
		if err := json.Unmarshal(gr.Report, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Score
	}

	first := grade()
	if score(first) != 0 {
		t.Fatalf("stride walk should fail seq-even-access, scored %v", score(first))
	}
	if again := grade(); !again.Cached {
		t.Fatal("resubmission under the same KB version should be cached")
	}

	// Hot-swap the definition to accept the stride-2 strategy.
	write("stride-2-even-access")
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get("hot").Version == first.KBVersion {
		if time.Now().After(deadline) {
			t.Fatal("registry never picked up the new definition")
		}
		time.Sleep(5 * time.Millisecond)
	}

	second := grade()
	if second.Cached {
		t.Fatal("new KB version must not serve the old cached report")
	}
	if second.KBVersion == first.KBVersion {
		t.Fatal("KB version unchanged after reload")
	}
	if score(second) != 1 {
		t.Fatalf("stride walk should satisfy stride-2-even-access, scored %v", score(second))
	}
}

// TestRegistrySkipsMalformedFile pins that one bad definition cannot take
// the rest of the KB offline.
func TestRegistrySkipsMalformedFile(t *testing.T) {
	dir := t.TempDir()
	good := `{"id": "good", "methods": [{"name": "m", "patterns": [{"name": "digit-extraction", "count": 1}]}]}`
	bad := `{"id": "bad", "methods": [{"name": "m", "patterns": [{"name": "no-such-pattern", "count": 1}]}]}`
	if err := os.WriteFile(filepath.Join(dir, "good.json"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, t.Logf)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	if reg.Get("good") == nil {
		t.Fatal("good definition should load")
	}
	if reg.Get("bad") != nil {
		t.Fatal("bad definition should be skipped")
	}
}

// TestStoreEndpointReadOnly pins the store's security contract: the key is
// derivable by anyone holding a submission, so /v1/store must reject writes —
// otherwise a client could plant a fabricated report and have handleGrade
// serve it back as the official cached result.
func TestStoreEndpointReadOnly(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t), Store: store.NewMemory(4096)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ref := assignments.Get("assignment1").Reference()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", Source: ref,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grade: status %d: %s", resp.StatusCode, body)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}

	storeURL := ts.URL + "/v1/store/" + store.NewKey("assignment1", "builtin", ref).Path()
	resp, err := ts.Client().Get(storeURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stored key: status %d", resp.StatusCode)
	}

	// The poisoning attempt: PUT a fabricated report under the real key.
	req, err := http.NewRequest(http.MethodPut, storeURL, strings.NewReader(`{"matched":true,"score":999}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/store: status %d, want 405", resp.StatusCode)
	}

	// The resubmission must serve the genuine graded report, untouched.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", Source: ref,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regrade: status %d: %s", resp.StatusCode, body)
	}
	var gr2 GradeResponse
	if err := json.Unmarshal(body, &gr2); err != nil {
		t.Fatal(err)
	}
	if !gr2.Cached {
		t.Fatal("resubmission should be a cache hit")
	}
	if !bytes.Equal(gr.Report, gr2.Report) {
		t.Fatal("cached report changed after a rejected PUT — store was poisoned")
	}
}

func TestHealthAndAssignments(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/metrics": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/assignments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		ID      string `json:"id"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].ID != "assignment1" || items[0].Version != "builtin" {
		t.Fatalf("unexpected assignment listing: %+v", items)
	}
}
