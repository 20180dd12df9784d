package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/obs"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

// DefaultReplicas is how many additional ring members a failed idempotent
// request is retried on when Config.Replicas is negative ("use default").
const DefaultReplicas = 2

// maxBodyBytes caps request bodies and the batch-shard replies read back
// from workers (16 MiB: batches pass through whole).
const maxBodyBytes = 16 << 20

// Config tunes the coordinator. The zero value (plus Workers) applies the
// defaults noted on each field — except Replicas, where zero is a meaningful
// setting (retries disabled) and negative selects the default.
type Config struct {
	// Workers are the worker base URLs (http://host:port); required.
	Workers []string
	// VNodes is the virtual-node count per worker (default DefaultVNodes).
	VNodes int
	// ProbeInterval is the /readyz health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProxyTimeout bounds one proxied /v1/grade attempt (default 15s; keep
	// it above the workers' grading deadline so the worker's 504 arrives
	// instead of a coordinator-side cut).
	ProxyTimeout time.Duration
	// ShardTimeout bounds one per-worker batch shard (default 60s).
	ShardTimeout time.Duration
	// ScrapeTimeout bounds one worker's statusz/metrics scrape and one
	// worker's trace fetch during cross-process assembly (default 3s).
	ScrapeTimeout time.Duration
	// Replicas is how many additional ring members a failed idempotent
	// request is retried on. Zero disables replica retries; negative means
	// "use the default" (DefaultReplicas).
	Replicas int
	// Logger receives structured event logs. Nil falls back to the
	// process-wide obs.Logger().
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 15 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 60 * time.Second
	}
	if c.ScrapeTimeout <= 0 {
		c.ScrapeTimeout = 3 * time.Second
	}
	if c.Replicas < 0 {
		c.Replicas = DefaultReplicas
	}
}

// Coordinator is the routing tier: it owns no knowledge base and grades
// nothing itself. /v1/grade is consistent-hash-routed to the worker owning
// (assignment, source hash) — so each worker's result store concentrates on
// its own shard of the submission space — and /v1/batch is sharded the same
// way and fanned out with per-worker deadlines. Transport-level failures
// reroute to the next replica on the ring (grades are idempotent) and mark
// the worker down without waiting for a probe cycle.
type Coordinator struct {
	cfg      Config
	client   *http.Client // pooled; proxies, shards, scrapes and trace fetches
	members  *Membership
	fed      *federator
	mux      *http.ServeMux
	handler  http.Handler
	draining atomic.Bool
	httpSrv  *http.Server
	addr     atomic.Pointer[string]
}

// New builds a coordinator over cfg.Workers.
func New(cfg Config) *Coordinator {
	cfg.defaults()
	if len(cfg.Workers) == 0 {
		panic("cluster: Config.Workers is required")
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
	c := &Coordinator{
		cfg:     cfg,
		client:  client,
		members: NewMembership(cfg.Workers, cfg.VNodes, client),
		fed:     newFederator(),
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/grade", c.handleGrade)
	c.mux.HandleFunc("/v1/batch", c.handleBatch)
	c.mux.HandleFunc("/v1/assignments", c.handleAssignments)
	c.mux.HandleFunc("GET /v1/trace/{id}", c.handleTrace)
	c.mux.HandleFunc("GET /v1/cluster/statusz", c.handleClusterStatusz)
	c.mux.HandleFunc("GET /v1/cluster/metrics.json", c.handleClusterMetrics)
	c.mux.HandleFunc("GET /v1/events", c.handleEvents)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/readyz", c.handleReadyz)
	c.mux.Handle("/metrics", obs.Handler())
	c.mux.Handle("/metrics.json", obs.JSONHandler())
	c.mux.Handle("/statusz", obs.StatuszHandler())
	c.mux.Handle("/debug/traces", obs.TraceHandler())
	// The coordinator reuses the server's middleware stack wholesale: same
	// request IDs, same SLO windows, same exemplar-carrying histogram — one
	// trace spans both processes because the middleware forwards context.
	c.handler = server.Observability(c.mux)
	return c
}

func (c *Coordinator) log() *slog.Logger {
	if c.cfg.Logger != nil {
		return c.cfg.Logger
	}
	return obs.Logger()
}

// Membership exposes the health-tracked worker set (tests and /readyz).
func (c *Coordinator) Membership() *Membership { return c.members }

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Start begins health probing and serves on addr (":0" picks a free port).
// The returned channel delivers the listener's terminal error; a graceful
// Shutdown delivers nil.
func (c *Coordinator) Start(addr string) (<-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	actual := ln.Addr().String()
	c.addr.Store(&actual)
	c.members.Start(c.cfg.ProbeInterval)
	c.httpSrv = &http.Server{Handler: c.handler}
	errc := make(chan error, 1)
	go func() {
		err := c.httpSrv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return errc, nil
}

// Addr returns the bound listen address after Start.
func (c *Coordinator) Addr() string {
	if p := c.addr.Load(); p != nil {
		return *p
	}
	return ""
}

// Shutdown drains the coordinator: readiness flips, probing stops, and
// in-flight proxied requests run to completion or until ctx fires.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	c.members.Stop()
	if c.httpSrv == nil {
		return nil
	}
	t0 := time.Now()
	c.log().Info("drain_start")
	err := c.httpSrv.Shutdown(ctx)
	c.log().Info("drain_complete",
		"duration_ms", float64(time.Since(t0).Microseconds())/1000,
		"clean", err == nil)
	return err
}

// ---------------------------------------------------------------------------
// Handlers

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports the coordinator's ability to route: draining or a
// ring with zero healthy workers is 503, because accepting traffic that can
// only fail is worse than telling the load balancer to go elsewhere.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case c.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case c.members.Ring().Size() == 0:
		http.Error(w, "no healthy workers", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// retryable reports whether a proxied response status means "try the next
// replica": only statuses that imply the worker cannot serve at all. A 429
// is deliberately not retryable — shedding is backpressure, and bouncing the
// same request onto another loaded worker amplifies an overload; it is
// forwarded verbatim (with the worker's own Retry-After) instead. A 504 is
// the worker's grading deadline and would cost a full extra timeout to
// retry.
func retryable(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

// handleGrade proxies one grade to the worker owning its routing key,
// retrying transport failures on up to Replicas successive ring members.
func (c *Coordinator) handleGrade(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	// Only the routing fields are decoded here; the worker owns validation,
	// so unknown fields or a bad assignment produce the same response a
	// standalone server would give.
	var greq server.GradeRequest
	if err := json.Unmarshal(body, &greq); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	server.SetRouteAssignment(req.Context(), greq.Assignment)
	c.proxyWithReroute(w, req, "/v1/grade", body, RouteKey(greq.Assignment, store.SourceHash(greq.Source)), greq.Assignment)
}

// proxyWithReroute forwards body to the owner of routeKey, walking the
// replica list on transport-level failure. It writes exactly one response.
func (c *Coordinator) proxyWithReroute(w http.ResponseWriter, req *http.Request, path string, body []byte, routeKey, assignment string) {
	rid := obs.RequestIDFrom(req.Context())
	tp := obs.OutboundTraceparent(req.Context())
	sp := obs.StartTrace("proxy/" + assignment)
	sp.SetTraceID(rid)
	if tc, ok := obs.TraceContextFrom(req.Context()); ok {
		sp.SetRemoteParent(tc.Traceparent())
	}
	// Stamp the exact forwarded traceparent on the proxy span: the worker
	// records the same header verbatim as its trace's parent, and that string
	// equality is the join key cross-process assembly stitches on.
	sp.SetAttr(obs.SentTraceparentKey, tp)
	defer sp.End()

	candidates := c.members.Ring().LookupN(routeKey, 1+c.cfg.Replicas)
	if len(candidates) == 0 {
		sp.SetOutcome("no_workers")
		server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	for attempt, worker := range candidates {
		t0 := time.Now()
		resp, err := c.forward(req.Context(), worker, path, body, rid, tp)
		if err == nil && !retryable(resp.StatusCode) {
			sp.SetAttr("worker", worker)
			sp.SetAttrInt("attempts", int64(attempt+1))
			status := c.copyResponse(w, resp)
			obs.ClusterProxySeconds.Observe(time.Since(t0).Seconds(), worker, server.StatusClass(status))
			switch {
			case status == http.StatusTooManyRequests:
				sp.SetOutcome("shed")
			case status >= 500:
				sp.SetOutcome("error")
			}
			if attempt > 0 {
				c.log().Info("rerouted",
					"request_id", rid,
					"assignment", assignment,
					"worker", worker,
					"attempts", attempt+1)
			}
			return
		}
		// The worker is unreachable or told us it cannot serve: drop it
		// from the ring now (fail-open) and try the next replica.
		status := 0
		if err == nil {
			status = resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		obs.ClusterProxySeconds.Observe(time.Since(t0).Seconds(), worker, "5xx")
		c.members.ReportFailure(worker)
		obs.ClusterReroutesTotal.Inc()
		c.log().Warn("worker_failed",
			"request_id", rid,
			"worker", worker,
			"status", status,
			"error", fmt.Sprint(err))
	}
	sp.SetOutcome("proxy_failed")
	server.WriteError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("all %d replicas failed", len(candidates)))
}

// forward issues one proxied POST carrying the request ID and an onward
// traceparent, bounded by ProxyTimeout.
func (c *Coordinator) forward(ctx context.Context, worker, path string, body []byte, rid, traceparent string) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set("X-Request-ID", rid)
	if traceparent != "" {
		// Omit the header entirely rather than sending a blank one — a blank
		// traceparent makes the worker parse and reject it instead of minting
		// its own trace identity.
		preq.Header.Set("traceparent", traceparent)
	}
	resp, err := c.client.Do(preq)
	if err != nil {
		cancel()
		return nil, err
	}
	// Tie the timeout to the body: the caller streams it out, then closes.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// copyResponse relays a worker response: status, content type, and — the
// backpressure contract — the worker's own Retry-After on a 429, so the
// client sees the shedding worker's hint, not a coordinator-minted one.
func (c *Coordinator) copyResponse(w http.ResponseWriter, resp *http.Response) int {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return resp.StatusCode
}

// ---------------------------------------------------------------------------
// Batch fan-out

// shardOutcome is one worker sub-batch's result.
type shardOutcome struct {
	worker  string
	indices []int // original submission indices, in shard order
	resp    *server.BatchResponse
	err     error // transport-level failure: indices go back in the pending pool
	status  int   // HTTP status when err == nil and status != 200
	body    string
}

// handleBatch decodes the batch, shards it across the ring by each
// submission's routing key, fans the shards out concurrently with per-worker
// deadlines, and merges the results back in submission order. A worker that
// fails in transport forfeits its shard to the next ring snapshot (one
// reroute round); a worker that answers an error status fails only its own
// items.
func (c *Coordinator) handleBatch(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	if req.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var breq server.BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	server.SetRouteAssignment(req.Context(), breq.Assignment)
	if len(breq.Submissions) == 0 {
		server.WriteError(w, http.StatusBadRequest, "no submissions")
		return
	}

	rid := obs.RequestIDFrom(req.Context())
	sp := obs.StartTrace("proxy_batch/" + breq.Assignment)
	sp.SetTraceID(rid)
	if tc, ok := obs.TraceContextFrom(req.Context()); ok {
		sp.SetRemoteParent(tc.Traceparent())
	}
	defer sp.End()

	resp := server.BatchResponse{Assignment: breq.Assignment}
	resp.Results = make([]server.BatchItem, len(breq.Submissions))
	routeKeys := make([]string, len(breq.Submissions))
	for i, sub := range breq.Submissions {
		resp.Results[i].ID = sub.ID
		routeKeys[i] = RouteKey(breq.Assignment, store.SourceHash(sub.Source))
	}

	pending := make([]int, len(breq.Submissions))
	for i := range pending {
		pending[i] = i
	}
	workersUsed := 0
	for round := 0; round <= c.cfg.Replicas && len(pending) > 0; round++ {
		ring := c.members.Ring()
		if ring.Size() == 0 {
			break
		}
		shards := map[string][]int{}
		for _, i := range pending {
			shards[ring.Lookup(routeKeys[i])] = append(shards[ring.Lookup(routeKeys[i])], i)
		}
		if round == 0 {
			workersUsed = len(shards)
		}
		outcomes := make([]shardOutcome, 0, len(shards))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for worker, indices := range shards {
			wg.Add(1)
			go func(worker string, indices []int) {
				defer wg.Done()
				// Each shard gets its own outbound traceparent (fresh span ID,
				// same trace ID) stamped on its own child span, so every
				// worker's batch fragment stitches under the shard span that
				// actually sent it work.
				tp := obs.OutboundTraceparent(req.Context())
				ssp := sp.Child("shard/" + worker)
				ssp.SetAttr("worker", worker)
				ssp.SetAttrInt("items", int64(len(indices)))
				ssp.SetAttr(obs.SentTraceparentKey, tp)
				out := c.runShard(req.Context(), worker, &breq, indices, rid, tp)
				if out.err != nil {
					ssp.SetAttr("error", out.err.Error())
				}
				ssp.End()
				mu.Lock()
				outcomes = append(outcomes, out)
				mu.Unlock()
			}(worker, indices)
		}
		wg.Wait()

		pending = pending[:0]
		for _, out := range outcomes {
			switch {
			case out.err != nil:
				// Transport failure: reroute this shard's items next round.
				c.members.ReportFailure(out.worker)
				obs.ClusterReroutesTotal.Inc()
				c.log().Warn("shard_failed",
					"request_id", rid,
					"worker", out.worker,
					"items", len(out.indices),
					"error", out.err.Error())
				pending = append(pending, out.indices...)
			case out.resp == nil:
				// HTTP-level error (shed, bad request, deadline): the worker
				// answered, so its verdict stands for its items.
				for _, i := range out.indices {
					resp.Results[i].Error = fmt.Sprintf("worker %s: HTTP %d: %s", out.worker, out.status, out.body)
					resp.Failed++
				}
			default:
				if resp.KBVersion == "" {
					resp.KBVersion = out.resp.KBVersion
				}
				for j, i := range out.indices {
					if j < len(out.resp.Results) {
						resp.Results[i] = out.resp.Results[j]
						resp.Results[i].ID = breq.Submissions[i].ID
					} else {
						// A short response must not leave items unaccounted:
						// every submission lands in Graded or Failed.
						resp.Results[i].Error = fmt.Sprintf(
							"worker %s returned short response (%d results for %d submissions)",
							out.worker, len(out.resp.Results), len(out.indices))
						resp.Failed++
					}
				}
				resp.Graded += out.resp.Graded
				resp.Failed += out.resp.Failed
				resp.Cancelled += out.resp.Cancelled
				resp.CacheHits += out.resp.CacheHits
			}
		}
	}
	for _, i := range pending {
		resp.Results[i].Error = "no healthy worker"
		resp.Failed++
	}
	resp.WallMS = float64(time.Since(t0).Microseconds()) / 1000
	sp.SetAttrInt("shards", int64(workersUsed))
	sp.SetAttrInt("submissions", int64(len(breq.Submissions)))
	if len(breq.Submissions) > 0 && resp.Graded == 0 && c.members.Ring().Size() == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
	c.log().Info("batch_fanout",
		"request_id", rid,
		"assignment", breq.Assignment,
		"submissions", len(breq.Submissions),
		"shards", workersUsed,
		"graded", resp.Graded,
		"failed", resp.Failed,
		"elapsed_ms", resp.WallMS)
}

// runShard sends one worker its sub-batch and decodes the response.
func (c *Coordinator) runShard(ctx context.Context, worker string, breq *server.BatchRequest, indices []int, rid, tp string) shardOutcome {
	obs.ClusterShardsTotal.Inc()
	out := shardOutcome{worker: worker, indices: indices}
	shard := server.BatchRequest{Assignment: breq.Assignment, Workers: breq.Workers}
	shard.Submissions = make([]struct {
		ID     string `json:"id,omitempty"`
		Source string `json:"source"`
	}, len(indices))
	for j, i := range indices {
		shard.Submissions[j] = breq.Submissions[i]
	}
	body, err := json.Marshal(shard)
	if err != nil {
		out.err = err
		return out
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set("X-Request-ID", rid)
	if tp != "" {
		preq.Header.Set("traceparent", tp)
	}
	resp, err := c.client.Do(preq)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		out.err = err
		return out
	}
	if retryable(resp.StatusCode) {
		out.err = fmt.Errorf("worker answered %d", resp.StatusCode)
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.status = resp.StatusCode
		out.body = strings1K(raw)
		return out
	}
	var bresp server.BatchResponse
	if err := json.Unmarshal(raw, &bresp); err != nil {
		out.err = fmt.Errorf("decode shard response: %w", err)
		return out
	}
	out.resp = &bresp
	return out
}

// strings1K truncates an error body for embedding in per-item errors.
func strings1K(b []byte) string {
	s := string(b)
	if len(s) > 1024 {
		s = s[:1024] + "…"
	}
	return strings2line(s)
}

func strings2line(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || s[i] == '\r' {
			out = append(out, ' ')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Pass-through endpoints

// handleAssignments proxies the listing to the first healthy worker — every
// worker serves the same KB, so any one of them is authoritative enough.
func (c *Coordinator) handleAssignments(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, worker := range c.members.Healthy() {
		ctx, cancel := context.WithTimeout(req.Context(), c.cfg.ProxyTimeout)
		preq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/assignments", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := c.client.Do(preq)
		if err != nil {
			cancel()
			c.members.ReportFailure(worker)
			continue
		}
		c.copyResponse(w, resp)
		cancel()
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
}

// handleTrace assembles the cross-process trace for one request ID: the
// coordinator's proxy fragment plus every worker's retained fragment for the
// same ID, fetched concurrently under one deadline and stitched into a single
// tree (obs.Stitch) — worker spans re-parented under the proxy span that
// forwarded them, each subtree annotated with its process and clock offset.
// One request ID, one curl, the whole cluster's view of that grade.
func (c *Coordinator) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	at := c.assembleTrace(req.Context(), id)
	if at == nil {
		server.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("no retained trace %q on the coordinator or any worker", id))
		return
	}
	if req.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, at.Text())
		return
	}
	server.WriteJSON(w, http.StatusOK, at)
}

// assembleTrace fans out the by-ID trace fetch to every configured worker —
// not just the healthy ones; a worker that served the request and was marked
// down afterwards may still hold the fragment — and stitches whatever came
// back. Returns nil when no process retained the ID.
func (c *Coordinator) assembleTrace(ctx context.Context, id string) *obs.AssembledTrace {
	workers := c.members.Workers()
	// The coordinator's own fragment first: Stitch prefers the first non-nil
	// trace as the base, and the proxy span is the tree's natural root.
	parts := make([]obs.RemoteTrace, 1+len(workers))
	parts[0] = obs.RemoteTrace{Source: "coordinator", Trace: obs.TraceByID(id)}

	ctx, cancel := context.WithTimeout(ctx, c.cfg.ScrapeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, worker := range workers {
		wg.Add(1)
		go func(slot int, worker string) {
			defer wg.Done()
			parts[slot] = c.fetchTrace(ctx, worker, id)
		}(1+i, worker)
	}
	wg.Wait()
	return obs.Stitch(parts)
}

// fetchTrace asks one worker for its fragment of trace id. A 404 is a normal
// non-contribution (the worker never saw the request, or evicted the trace);
// transport failures and other statuses are recorded in the provenance block.
func (c *Coordinator) fetchTrace(ctx context.Context, worker, id string) obs.RemoteTrace {
	out := obs.RemoteTrace{Source: worker}
	preq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/trace/"+id, nil)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	resp, err := c.client.Do(preq)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return out
	case resp.StatusCode != http.StatusOK:
		out.Err = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return out
	}
	var td obs.TraceData
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBytes)).Decode(&td); err != nil {
		out.Err = "decode trace: " + err.Error()
		return out
	}
	out.Trace = &td
	return out
}
