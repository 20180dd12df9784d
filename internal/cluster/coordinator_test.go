package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/obs"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

// testWorker is an in-process grading server plus the handles a failover
// test needs: stop drains it gracefully, kill tears down every connection
// the way a crashed process would.
type testWorker struct {
	base string
	srv  *server.Server
	errc <-chan error
}

func (w *testWorker) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx)
	<-w.errc
}

func (w *testWorker) kill() {
	_ = w.srv.Close()
	<-w.errc
}

// spawnWorker starts a real grading server over the builtin assignment1.
func spawnWorker(t *testing.T) *testWorker {
	t.Helper()
	a := assignments.Get("assignment1")
	if a == nil {
		t.Fatal("builtin assignment1 missing")
	}
	reg := server.NewRegistry("", nil)
	reg.AddBuiltin(a.ID, a.Spec)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Registry: reg, Store: store.NewMemory(4096)})
	errc, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &testWorker{base: "http://" + srv.Addr(), srv: srv, errc: errc}
}

// spawnCoordinator builds and starts a coordinator over the worker URLs.
func spawnCoordinator(t *testing.T, workers ...string) (*Coordinator, string) {
	t.Helper()
	c := New(Config{Workers: workers, ProbeInterval: 200 * time.Millisecond, Replicas: DefaultReplicas})
	errc, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		<-errc
	})
	return c, "http://" + c.Addr()
}

func gradeVia(t *testing.T, base, source string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(server.GradeRequest{Assignment: "assignment1", Source: source})
	resp, err := http.Post(base+"/v1/grade", "application/json", bytes.NewReader(body))
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

// variants renders n distinct submissions of assignment1.
func variants(t *testing.T, n int) []string {
	t.Helper()
	a := assignments.Get("assignment1")
	out := make([]string, 0, n)
	for _, k := range a.Synth.Sample(n) {
		out = append(out, a.Synth.Render(k))
	}
	if len(out) < n {
		t.Fatalf("only %d variants available, want %d", len(out), n)
	}
	return out
}

// TestCoordinatorRoutesAndCaches proves routing is deterministic: a
// resubmission through the coordinator lands on the same worker and is
// served from that worker's result store.
func TestCoordinatorRoutesAndCaches(t *testing.T) {
	w1 := spawnWorker(t)
	w2 := spawnWorker(t)
	defer w1.stop()
	defer w2.stop()
	_, base := spawnCoordinator(t, w1.base, w2.base)

	for _, src := range variants(t, 8) {
		resp, body := gradeVia(t, base, src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold grade: status %d: %s", resp.StatusCode, body)
		}
		var gr server.GradeResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatal(err)
		}
		if gr.Cached {
			t.Fatal("first submission reported cached")
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatal("no X-Request-ID through the coordinator")
		}

		// The resubmission must hit the owning worker's cache — that only
		// happens if the consistent-hash route is stable.
		resp2, body2 := gradeVia(t, base, src)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("resubmission: status %d: %s", resp2.StatusCode, body2)
		}
		var gr2 server.GradeResponse
		if err := json.Unmarshal(body2, &gr2); err != nil {
			t.Fatal(err)
		}
		if !gr2.Cached {
			t.Fatal("resubmission not served from the owner's result store (route unstable?)")
		}
	}
}

// TestCoordinatorForwardsWorkerRetryAfter pins the backpressure contract: a
// shed worker's 429 and its Retry-After pass through verbatim.
func TestCoordinatorForwardsWorkerRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ready")
			return
		}
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"admission queue full, retry later"}`)
	}))
	defer shedding.Close()
	_, base := spawnCoordinator(t, shedding.URL)

	resp, body := gradeVia(t, base, "void assignment1(int[] a) {}")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the worker's own \"7\"", ra)
	}
}

// TestCoordinatorReadyz pins the satellite: readiness follows the healthy
// worker count.
func TestCoordinatorReadyz(t *testing.T) {
	w1 := spawnWorker(t)
	defer w1.stop()
	c, base := spawnCoordinator(t, w1.base)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a healthy worker: %d", resp.StatusCode)
	}

	c.Membership().ReportFailure(w1.base)
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with zero healthy workers: %d, want 503", resp.StatusCode)
	}
}

// TestCoordinatorReroutesOnDeadWorker kills one of two workers and asserts
// every subsequent grade still succeeds — rerouted, never five-hundred-ed.
func TestCoordinatorReroutesOnDeadWorker(t *testing.T) {
	obs.Enable() // the reroute assertion below reads a counter
	defer obs.Disable()
	w1 := spawnWorker(t)
	w2 := spawnWorker(t)
	defer w2.stop()
	_, base := spawnCoordinator(t, w1.base, w2.base)

	srcs := variants(t, 12)
	for _, src := range srcs {
		if resp, body := gradeVia(t, base, src); resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-kill grade: %d: %s", resp.StatusCode, body)
		}
	}

	before := obs.ClusterReroutesTotal.Value()
	w1.kill() // crash, not drain: every open connection dies with it

	for _, src := range srcs {
		resp, body := gradeVia(t, base, src)
		if resp.StatusCode >= 500 {
			t.Fatalf("grade after worker kill: %d (want reroute, not failure): %s", resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grade after worker kill: %d: %s", resp.StatusCode, body)
		}
	}
	if obs.ClusterReroutesTotal.Value() == before {
		t.Fatal("no reroutes counted though a worker died mid-run")
	}
}

// TestCoordinatorBatchFanout shards a batch over two workers and checks the
// merged response preserves submission order and counts.
func TestCoordinatorBatchFanout(t *testing.T) {
	w1 := spawnWorker(t)
	w2 := spawnWorker(t)
	defer w1.stop()
	defer w2.stop()
	_, base := spawnCoordinator(t, w1.base, w2.base)

	srcs := variants(t, 10)
	var breq server.BatchRequest
	breq.Assignment = "assignment1"
	breq.Submissions = make([]struct {
		ID     string `json:"id,omitempty"`
		Source string `json:"source"`
	}, len(srcs))
	for i, src := range srcs {
		breq.Submissions[i].ID = fmt.Sprintf("sub-%d", i)
		breq.Submissions[i].Source = src
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bresp server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if bresp.Graded != len(srcs) || bresp.Failed != 0 {
		t.Fatalf("graded %d failed %d, want %d/0", bresp.Graded, bresp.Failed, len(srcs))
	}
	if len(bresp.Results) != len(srcs) {
		t.Fatalf("%d results, want %d", len(bresp.Results), len(srcs))
	}
	for i, item := range bresp.Results {
		if item.ID != fmt.Sprintf("sub-%d", i) {
			t.Fatalf("result %d carries ID %q — shard merge broke submission order", i, item.ID)
		}
		if item.Error != "" || len(item.Report) == 0 {
			t.Fatalf("result %d: error %q, report %d bytes", i, item.Error, len(item.Report))
		}
	}
	if bresp.KBVersion != "builtin" {
		t.Fatalf("KBVersion %q, want builtin", bresp.KBVersion)
	}
}

// TestConfigReplicasSemantics pins that an explicit Replicas: 0 disables
// retries (it is not coerced back to the default) while negative selects
// DefaultReplicas.
func TestConfigReplicasSemantics(t *testing.T) {
	zero := Config{Replicas: 0}
	zero.defaults()
	if zero.Replicas != 0 {
		t.Fatalf("Replicas: 0 coerced to %d, want 0 (retries disabled)", zero.Replicas)
	}
	neg := Config{Replicas: -1}
	neg.defaults()
	if neg.Replicas != DefaultReplicas {
		t.Fatalf("Replicas: -1 = %d, want default %d", neg.Replicas, DefaultReplicas)
	}
}

// TestBatchShortShardResponseAccounted pins that a worker answering a batch
// shard with fewer results than submissions leaves no item unaccounted: the
// missing indices fail explicitly and Graded+Failed covers every submission.
func TestBatchShortShardResponseAccounted(t *testing.T) {
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ready")
			return
		}
		var breq server.BatchRequest
		_ = json.NewDecoder(r.Body).Decode(&breq)
		// Answer only the first submission, dropping the rest.
		resp := server.BatchResponse{Assignment: breq.Assignment, KBVersion: "builtin", Graded: 1}
		resp.Results = []server.BatchItem{{ID: breq.Submissions[0].ID, Report: json.RawMessage(`{}`)}}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer short.Close()
	_, base := spawnCoordinator(t, short.URL)

	var breq server.BatchRequest
	breq.Assignment = "assignment1"
	breq.Submissions = make([]struct {
		ID     string `json:"id,omitempty"`
		Source string `json:"source"`
	}, 3)
	for i := range breq.Submissions {
		breq.Submissions[i].ID = fmt.Sprintf("sub-%d", i)
		breq.Submissions[i].Source = fmt.Sprintf("void assignment1(int[] a) { int x%d; }", i)
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bresp server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Graded+bresp.Failed != len(breq.Submissions) {
		t.Fatalf("graded %d + failed %d != %d submissions — short response left items unaccounted",
			bresp.Graded, bresp.Failed, len(breq.Submissions))
	}
	if bresp.Failed != 2 {
		t.Fatalf("failed = %d, want 2", bresp.Failed)
	}
	for i := 1; i < 3; i++ {
		if bresp.Results[i].Error == "" {
			t.Fatalf("result %d dropped by the worker but carries no error", i)
		}
	}
}

// TestPeerFillServesOwnedKeys wires two workers with peer-fill stores and
// checks a key graded on its owner is fetchable through the other worker's
// store (the HTTP fill path), while /v1/store never chains fills.
func TestPeerFillServesOwnedKeys(t *testing.T) {
	// Two real workers with plain memory stores, fronted by peer-fill.
	a := assignments.Get("assignment1")
	reg := server.NewRegistry("", nil)
	reg.AddBuiltin(a.ID, a.Spec)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}

	// Worker URLs are needed before construction to build the peer ring, so
	// start two placeholder-addressed servers first.
	mkWorker := func() (*server.Server, string, func()) {
		srv := server.New(server.Config{Registry: reg, Store: store.NewMemory(4096)})
		errc, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + srv.Addr()
		return srv, base, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			<-errc
		}
	}
	_, base1, stop1 := mkWorker()
	_, base2, stop2 := mkWorker()
	defer stop1()
	defer stop2()

	// Grade one submission directly on its ring owner so only that worker's
	// store holds the result, then peer-fill from the other node's view.
	src := a.Reference()
	key := store.NewKey("assignment1", "builtin", src)
	owner := NewRing([]string{trimSlash(base1), trimSlash(base2)}, DefaultVNodes).Lookup(RouteKey(key.Assignment, key.SourceHash))
	other := trimSlash(base2)
	if owner == other {
		other = trimSlash(base1)
	}
	body, _ := json.Marshal(server.GradeRequest{Assignment: "assignment1", Source: src})
	resp, err := http.Post(owner+"/v1/grade", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct grade on owner: %d", resp.StatusCode)
	}

	local := store.NewMemory(16)
	pf := NewPeerFill(local, other, []string{base1, base2}, DefaultVNodes)
	got, ok := pf.Get(key)
	if !ok || len(got) == 0 {
		t.Fatal("peer fill did not serve the owner's cached result")
	}
	// The fill must have backfilled the local tier.
	if _, ok := local.Get(key); !ok {
		t.Fatal("peer fill did not backfill the local tier")
	}
}
