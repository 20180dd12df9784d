package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/obs"
	"semfeed/internal/store"
)

// withObs turns on metrics and tracing for one test and cleans up after.
func withObs(t *testing.T) {
	t.Helper()
	wasEnabled, wasTracing := obs.Enabled(), obs.TracingEnabled()
	obs.Enable()
	obs.EnableTracing()
	t.Cleanup(func() {
		if !wasEnabled {
			obs.Disable()
		}
		if !wasTracing {
			obs.DisableTracing()
		}
		obs.ResetTraces()
		obs.SLO.Reset()
	})
	obs.ResetTraces()
	obs.SLO.Reset()
}

// logLines decodes every JSON log line in buf.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

func findLog(recs []map[string]any, msg string) map[string]any {
	for _, r := range recs {
		if r["msg"] == msg {
			return r
		}
	}
	return nil
}

// TestRequestIDEcho: every response carries X-Request-ID; a well-formed
// client-supplied ID is adopted, a malformed one replaced.
func TestRequestIDEcho(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); len(rid) != 16 {
		t.Errorf("minted request ID = %q, want 16 hex chars", rid)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-1")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid != "client-id-1" {
		t.Errorf("valid client ID not adopted: got %q", rid)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id;with junk")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid == "bad id;with junk" || rid == "" {
		t.Errorf("malformed client ID not replaced: got %q", rid)
	}
}

// TestGradeCorrelation is the end-to-end correlation contract: one graded
// request yields the same ID in the X-Request-ID header, the structured
// "grade" log line, and a retrievable
// /v1/trace/{id} entry (forced tail retention via a zero slow threshold).
func TestGradeCorrelation(t *testing.T) {
	withObs(t)
	prevSlow := obs.SetSlowTraceThreshold(0) // every trace is "slow": tail-retained
	defer obs.SetSlowTraceThreshold(prevSlow)

	var logBuf bytes.Buffer
	srv := New(Config{
		Registry: testRegistry(t),
		Logger:   obs.NewLogger(&logBuf, "json", slog.LevelInfo),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := assignments.Get("assignment1").Reference()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", ID: "sub-1", Source: src,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID on the grade response")
	}

	// 1. The reply body does not: the report is stored and served to later
	// requests, so it must not depend on this one.
	if bytes.Contains(body, []byte(rid)) {
		t.Errorf("grade reply carries request ID %q: %s", rid, body)
	}

	// 2. The grade log line carries the ID.
	grade := findLog(logLines(t, &logBuf), "grade")
	if grade == nil {
		t.Fatal("no \"grade\" log line emitted")
	}
	if grade["request_id"] != rid {
		t.Errorf("grade log request_id = %v, want %q", grade["request_id"], rid)
	}
	for _, k := range []string{"assignment", "source_hash", "cached", "status", "score", "elapsed_ms"} {
		if _, ok := grade[k]; !ok {
			t.Errorf("grade log line missing %q: %v", k, grade)
		}
	}
	if want := store.SourceHash(src)[:16]; grade["source_hash"] != want {
		t.Errorf("grade log source_hash = %v, want %q (the store key's prefix)", grade["source_hash"], want)
	}

	// 3. The trace is retrievable by the same ID.
	tresp, err := ts.Client().Get(ts.URL + "/v1/trace/" + rid)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", rid, tresp.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(tresp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.ID != rid || td.Retained != "tail" || len(td.Spans) == 0 {
		t.Errorf("trace = id %q retained %q with %d spans, want id %q / tail", td.ID, td.Retained, len(td.Spans), rid)
	}

	// The text rendering is reachable too.
	tresp2, err := ts.Client().Get(ts.URL + "/v1/trace/" + rid + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp2.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(tresp2.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	if !strings.Contains(sb.String(), "trace "+rid) || !strings.Contains(sb.String(), "grade/assignment1") {
		t.Errorf("text trace malformed:\n%s", sb.String())
	}
}

// TestStoredReportHasNoRequestID: the same source posted under two request
// IDs is graded once and served from the store once. Each reply's
// X-Request-ID header carries its own request's ID, and neither body
// carries one, so the stored bytes are the same for every request that
// reads them.
func TestStoredReportHasNoRequestID(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(GradeRequest{Assignment: "assignment1", Source: assignments.Get("assignment1").Reference()})
	if err != nil {
		t.Fatal(err)
	}
	var replies [2]GradeResponse
	for i, rid := range []string{"aaaa1111", "bbbb2222"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/grade", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", rid)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i+1, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Request-ID"); got != rid {
			t.Errorf("POST %d: X-Request-ID %q, want %q", i+1, got, rid)
		}
		if bytes.Contains(raw, []byte("request_id")) {
			t.Errorf("POST %d: reply carries a request ID: %s", i+1, raw)
		}
		if err := json.Unmarshal(raw, &replies[i]); err != nil {
			t.Fatal(err)
		}
	}
	if replies[0].Cached || !replies[1].Cached {
		t.Errorf("cached = %v, %v; want a miss then a hit", replies[0].Cached, replies[1].Cached)
	}
	if !bytes.Equal(replies[0].Report, replies[1].Report) {
		t.Errorf("the stored report differs from the graded one:\n%s\n%s", replies[0].Report, replies[1].Report)
	}
}

func TestTraceNotFound(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

// TestStatusz: after graded traffic, /statusz serves SLO windows with
// non-zero request counts and latency percentiles.
func TestStatusz(t *testing.T) {
	withObs(t)
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ref := assignments.Get("assignment1").Reference()
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
			Assignment: "assignment1", Source: ref,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grade status %d", resp.StatusCode)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st obs.Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	oneMin, ok := st.SLO["1m"]
	if !ok {
		t.Fatal("/statusz missing the 1m SLO window")
	}
	if oneMin.Requests != 3 {
		t.Errorf("1m window requests = %d, want 3", oneMin.Requests)
	}
	if oneMin.P99MS <= 0 {
		t.Errorf("1m window p99 = %g, want > 0 after graded traffic", oneMin.P99MS)
	}
	if st.Runtime.Goroutines <= 0 {
		t.Errorf("runtime goroutines = %d", st.Runtime.Goroutines)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g", st.UptimeSeconds)
	}
}

// TestShedObservability: a shed request gets a 429 plus a correlated "shed"
// log line and a tail-retained shed trace.
func TestShedObservability(t *testing.T) {
	withObs(t)
	var logBuf bytes.Buffer
	var mu sync.Mutex // logBuf is written from handler goroutines
	srv := New(Config{
		Registry:      testRegistry(t),
		MaxConcurrent: 1,
		QueueDepth:    1,
		Logger:        obs.NewLogger(syncWriter{&mu, &logBuf}, "json", slog.LevelInfo),
	})
	release := make(chan struct{})
	acquired := make(chan struct{}, 4)
	srv.onSlotAcquired = func() {
		acquired <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)

	// Occupy the single slot, fill the queue, then overflow it.
	src := "class A { void f() { int x = 1; } }"
	errs := make(chan int, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
				Assignment: "assignment1", ID: string(rune('a' + i)), Source: src + strings.Repeat(" ", i),
			})
			errs <- resp.StatusCode
		}(i)
	}
	<-acquired // first request holds the slot
	// Wait until the second is queued.
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", ID: "overflow", Source: src + "  ",
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")

	release <- struct{}{}
	release <- struct{}{}
	<-errs
	<-errs

	mu.Lock()
	shed := findLog(logLines(t, &logBuf), "shed")
	mu.Unlock()
	if shed == nil {
		t.Fatal("no \"shed\" log line")
	}
	if shed["request_id"] != rid {
		t.Errorf("shed log request_id = %v, want %q", shed["request_id"], rid)
	}
	td := obs.TraceByID(rid)
	if td == nil || td.Outcome != "shed" || td.Retained != "tail" {
		t.Errorf("shed trace = %+v, want tail-retained with outcome shed", td)
	}
}

// TestTraceparentAdoption: a request carrying a valid W3C traceparent gets
// its grade trace parented under the remote identity; a malformed header is
// ignored rather than rejected.
func TestTraceparentAdoption(t *testing.T) {
	withObs(t)
	prevSlow := obs.SetSlowTraceThreshold(0)
	defer obs.SetSlowTraceThreshold(prevSlow)
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	body, _ := json.Marshal(GradeRequest{
		Assignment: "assignment1", Source: assignments.Get("assignment1").Reference(),
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/grade", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grade status %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	td := obs.TraceByID(rid)
	if td == nil {
		t.Fatalf("no trace retained for %s", rid)
	}
	if td.TraceParent != parent {
		t.Errorf("trace parent = %q, want the inbound %q", td.TraceParent, parent)
	}

	// Malformed traceparent: request still succeeds, no parent adopted. A
	// distinct source keeps the request off the result cache so it grades
	// (and traces) for real.
	body, _ = json.Marshal(GradeRequest{
		Assignment: "assignment1", Source: assignments.Get("assignment1").Reference() + " ",
	})
	req, _ = http.NewRequest("POST", ts.URL+"/v1/grade", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-garbage-header-01")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grade with bad traceparent: status %d", resp.StatusCode)
	}
	if td := obs.TraceByID(resp.Header.Get("X-Request-ID")); td == nil || td.TraceParent != "" {
		t.Errorf("malformed traceparent adopted: %+v", td)
	}
}

// TestLabeledExpositionAndExemplars is the dimensional-metrics contract on
// the serving path: after one graded request, /metrics carries the per-phase
// and per-request labeled families, the request-latency bucket that request
// landed in names its request ID as an exemplar, and that exemplar ID
// resolves to a retrievable trace — the dashboard-to-trace link.
func TestLabeledExpositionAndExemplars(t *testing.T) {
	withObs(t)
	prevSlow := obs.SetSlowTraceThreshold(0)
	defer obs.SetSlowTraceThreshold(prevSlow)
	srv := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{
		Assignment: "assignment1", Source: assignments.Get("assignment1").Reference(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grade status %d: %s", resp.StatusCode, body)
	}
	rid := resp.Header.Get("X-Request-ID")

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	expo := raw.String()
	for _, want := range []string{
		`semfeed_grades_total{assignment="assignment1",status="ok"}`,
		`semfeed_phase_ns{assignment="assignment1",phase="parse"}`,
		`semfeed_phase_ns{assignment="assignment1",phase="build"}`,
		`semfeed_phase_ns{assignment="assignment1",phase="match"}`,
		`semfeed_server_request_seconds_bucket{assignment="assignment1",status="2xx",le="+Inf"}`,
		`# exemplar semfeed_server_request_seconds_bucket{assignment="assignment1",status="2xx",le=`,
		"semfeed_build_info{revision=",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// One of the request-latency exemplars carries this request's ID (the
	// vec is process-global, so other tests' requests may own other buckets),
	// and that ID resolves to a trace.
	exemplarIDs := map[string]bool{}
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "# exemplar semfeed_server_request_seconds_bucket") {
			if i := strings.Index(line, `trace_id="`); i >= 0 {
				rest := line[i+len(`trace_id="`):]
				exemplarIDs[rest[:strings.Index(rest, `"`)]] = true
			}
		}
	}
	if !exemplarIDs[rid] {
		t.Errorf("no request-latency exemplar carries the request ID %q: %v", rid, exemplarIDs)
	}
	tresp, err := ts.Client().Get(ts.URL + "/v1/trace/" + rid)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Errorf("exemplar trace %q does not resolve: status %d", rid, tresp.StatusCode)
	}

	// /statusz surfaces the same exemplars and the build identity.
	sresp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st obs.Statusz
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Build.Revision == "" || st.Build.GoVersion == "" {
		t.Errorf("statusz build info empty: %+v", st.Build)
	}
	var found bool
	for _, ex := range st.Exemplars {
		if ex.Metric == "semfeed_server_request_seconds" && ex.TraceID == rid {
			found = true
		}
	}
	if !found {
		t.Errorf("statusz exemplars missing the request's bucket link: %+v", st.Exemplars)
	}
}

type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestShutdownLogsDrain: Shutdown emits drain_start and drain_complete.
func TestShutdownLogsDrain(t *testing.T) {
	var logBuf bytes.Buffer
	srv := New(Config{
		Registry: testRegistry(t),
		Logger:   obs.NewLogger(&logBuf, "json", slog.LevelInfo),
	})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	recs := logLines(t, &logBuf)
	start := findLog(recs, "drain_start")
	done := findLog(recs, "drain_complete")
	if start == nil || done == nil {
		t.Fatalf("drain log lines missing: %v", recs)
	}
	if _, ok := start["inflight"]; !ok {
		t.Errorf("drain_start missing inflight: %v", start)
	}
	if _, ok := done["duration_ms"]; !ok {
		t.Errorf("drain_complete missing duration_ms: %v", done)
	}
	if done["clean"] != true {
		t.Errorf("drain_complete clean = %v, want true", done["clean"])
	}
}

// TestPprofGate: /debug/pprof/ is mounted only with EnablePprof.
func TestPprofGate(t *testing.T) {
	off := New(Config{Registry: testRegistry(t)})
	ts := httptest.NewServer(off.Handler())
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without EnablePprof")
	}

	on := New(Config{Registry: testRegistry(t), EnablePprof: true})
	ts = httptest.NewServer(on.Handler())
	defer ts.Close()
	resp, err = ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d with EnablePprof", resp.StatusCode)
	}
}
