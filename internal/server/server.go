// Package server is the long-running grading service over the engine: a
// stdlib-only HTTP JSON API exposing single-submission and batch grading
// with a bounded admission queue (load is shed with 429 + Retry-After, never
// buffered without bound), per-request deadlines propagated through the
// grader into Algorithm 1's search loop, an LRU result cache keyed by
// (assignment, KB version, source hash) so identical resubmissions skip the
// pipeline entirely, a hot-reloading knowledge-base registry, and graceful
// drain for zero-downtime restarts. cmd/semfeedd is the daemon wrapper.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"semfeed/internal/core"
	"semfeed/internal/obs"
	"semfeed/internal/store"
)

// Config tunes the service. The zero value (plus a Registry) applies the
// defaults noted on each field.
type Config struct {
	// Registry resolves assignment IDs; required.
	Registry *Registry
	// GradeOptions tune the underlying grader.
	GradeOptions core.Options
	// MaxConcurrent bounds simultaneously executing grading requests
	// (default GOMAXPROCS). A batch request holds one slot and runs its own
	// worker pool inside it.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a slot (default 64); beyond
	// it, requests are shed with 429.
	QueueDepth int
	// RequestTimeout is the per-request grading deadline (default 10s).
	RequestTimeout time.Duration
	// Store is the result store; nil means none, so every request is
	// graded. A single process passes an in-memory LRU (store.NewMemory);
	// cluster workers pass a disk-backed or peer-filling store. Whatever
	// the backend, keys are (assignment, KB version, source hash), so
	// hot-reload invalidation holds across every tier.
	Store store.Store
	// Logger receives structured event logs (one summary line per grade,
	// batch, shed and drain event). Nil falls back to the process-wide
	// obs.Logger(), which discards until obs.SetLogger is called.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the service
	// mux. Off by default: profiles expose memory contents, so the daemon
	// gates this behind an explicit flag.
	EnablePprof bool
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
}

const (
	// retryAfterSeconds is the Retry-After hint returned with 429 responses.
	retryAfterSeconds = 1
	// maxBodyBytes caps request bodies.
	maxBodyBytes = 4 << 20
)

// Server is the grading service. Create with New, mount Handler (or Start a
// listener), and Shutdown to drain.
type Server struct {
	cfg      Config
	grader   *core.Grader
	adm      *admission
	store    store.Store // nil when there is no result store
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the request-ID/SLO middleware
	draining atomic.Bool
	httpSrv  *http.Server
	addr     atomic.Pointer[string]

	// onSlotAcquired, when non-nil, runs after a request takes a worker
	// slot and before grading starts. Tests use it to hold requests
	// in-flight deterministically.
	onSlotAcquired func()
}

// New builds the service over cfg.Registry.
func New(cfg Config) *Server {
	cfg.defaults()
	if cfg.Registry == nil {
		panic("server: Config.Registry is required")
	}
	s := &Server{
		cfg:    cfg,
		grader: core.NewGrader(cfg.GradeOptions),
		adm:    newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		store:  cfg.Store,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/grade", s.handleGrade)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/assignments", s.handleAssignments)
	s.mux.HandleFunc("/v1/store/", s.handleStore)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", obs.Handler())
	s.mux.Handle("/metrics.json", obs.JSONHandler())
	s.mux.Handle("/statusz", obs.StatuszHandler())
	s.mux.Handle("/debug/traces", obs.TraceHandler())
	if cfg.EnablePprof {
		obs.AttachPprof(s.mux)
	}
	s.handler = Observability(s.mux)
	return s
}

// storeGet reads from the result store (nil-safe).
func (s *Server) storeGet(k store.Key) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.Get(k)
}

// storePut writes to the result store (nil-safe, best-effort).
func (s *Server) storePut(k store.Key, body []byte) {
	if s.store != nil {
		s.store.Put(k, body)
	}
}

// log returns the structured event logger: the configured one, else the
// process-wide obs logger (discarding by default).
func (s *Server) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return obs.Logger()
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr (":0" picks a free port; see Addr) and serves in a
// background goroutine. The returned channel delivers the listener's
// terminal error; a graceful Shutdown delivers nil.
func (s *Server) Start(addr string) (<-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	actual := ln.Addr().String()
	s.addr.Store(&actual)
	s.httpSrv = &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() {
		err := s.httpSrv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return errc, nil
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if p := s.addr.Load(); p != nil {
		return *p
	}
	return ""
}

// Shutdown drains the service: readiness flips to 503 (so load balancers
// stop routing here), the listener stops accepting, and in-flight requests
// — including queued ones that still get admitted — run to completion or
// until ctx fires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	t0 := time.Now()
	s.log().Info("drain_start",
		"inflight", s.adm.inflight(),
		"queued", s.adm.waiting())
	err := s.httpSrv.Shutdown(ctx)
	s.log().Info("drain_complete",
		"duration_ms", float64(time.Since(t0).Microseconds())/1000,
		"clean", err == nil)
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close abruptly stops the server: the listener and every open connection
// are torn down without draining. This is the crash path — cluster failover
// tests use it to simulate a worker dying mid-run (a graceful Shutdown keeps
// answering on pooled keep-alive connections, which is precisely not a
// crash).
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// ---------------------------------------------------------------------------
// Wire types

// GradeRequest is the body of POST /v1/grade.
type GradeRequest struct {
	// Assignment is the registry ID to grade against.
	Assignment string `json:"assignment"`
	// ID is an opaque client tag echoed back (LMS submission ID).
	ID string `json:"id,omitempty"`
	// Source is the Java submission text.
	Source string `json:"source"`
}

// GradeResponse is the body of a successful POST /v1/grade. The handler does
// not encode this type: it splices the report bytes, as stored, after the
// JSON of the first four fields (writeGradeReply). TestGradeReplyBytes holds
// the spliced reply to this type's json.Encoder encoding, byte for byte.
type GradeResponse struct {
	Assignment string          `json:"assignment"`
	ID         string          `json:"id,omitempty"`
	KBVersion  string          `json:"kb_version"`
	Cached     bool            `json:"cached"`
	Report     json.RawMessage `json:"report"`
}

// gradeHead is GradeResponse without its report: the same fields, in the
// same order, with the same tags.
type gradeHead struct {
	Assignment string `json:"assignment"`
	ID         string `json:"id,omitempty"`
	KBVersion  string `json:"kb_version"`
	Cached     bool   `json:"cached"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Assignment  string `json:"assignment"`
	Submissions []struct {
		ID     string `json:"id,omitempty"`
		Source string `json:"source"`
	} `json:"submissions"`
	// Workers overrides the per-batch pool size, which is at most and by
	// default GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// BatchItem is one submission's outcome within a BatchResponse.
type BatchItem struct {
	ID     string          `json:"id,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch.
type BatchResponse struct {
	Assignment string      `json:"assignment"`
	KBVersion  string      `json:"kb_version"`
	Results    []BatchItem `json:"results"`
	Graded     int         `json:"graded"`
	Failed     int         `json:"failed"`
	Cancelled  int         `json:"cancelled"`
	CacheHits  int         `json:"cache_hits"`
	WallMS     float64     `json:"wall_ms"`
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.cfg.Registry.Len() == 0:
		http.Error(w, "no assignments loaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleTrace serves one retained trace by ID (GET /v1/trace/{id}): the full
// span structure as JSON, or the indented tree with ?format=text. The ID is
// the request ID echoed in X-Request-ID, so one curl goes from a response
// header to the grade's span breakdown.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	td := obs.TraceByID(id)
	if td == nil {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("no retained trace %q (sampled out, evicted, or tracing disabled)", id))
		return
	}
	if req.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, td.Tree())
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// handleStore serves the node's result store over HTTP
// (GET /v1/store/{assignment}/{kb-version}/{source-hash}): the wire surface
// that lets cluster peers pull cache hits for keys they own. It answers from
// the local tier only (via store.LocalGet), so two peers asking each other
// can never chain fills. The endpoint is strictly read-only: the store key is
// derivable by anyone holding a submission (assignment ID, KB version, and
// the source's SHA-256), so a write surface here would let any client plant a
// fabricated report that handleGrade then serves as the official cached
// result. Grading is the only writer; replication is the reader's pull.
func (s *Server) handleStore(w http.ResponseWriter, req *http.Request) {
	if s.store == nil {
		s.fail(w, http.StatusNotFound, "result store disabled")
		return
	}
	if req.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only (the store is read-only over HTTP)")
		return
	}
	key, ok := store.ParsePath(strings.TrimPrefix(req.URL.Path, "/v1/store/"))
	if !ok {
		s.fail(w, http.StatusBadRequest, "malformed store key (want assignment/kb-version/source-hash)")
		return
	}
	body, hit := store.LocalGet(s.store, key)
	if !hit {
		s.fail(w, http.StatusNotFound, "not stored")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleAssignments(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type item struct {
		ID      string `json:"id"`
		Version string `json:"version"`
		Source  string `json:"source"`
		Methods int    `json:"methods"`
	}
	var out []item
	for _, e := range s.cfg.Registry.Entries() {
		out = append(out, item{ID: e.ID, Version: e.Version, Source: e.Source, Methods: len(e.Spec.Methods)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGrade(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	var greq GradeRequest
	entry, ok := s.decodeRequest(w, req, &greq, func() (string, string) { return greq.Assignment, greq.Source })
	if !ok {
		return
	}
	obs.ServerRequestsTotal.Inc()

	rid := obs.RequestIDFrom(req.Context())
	key := store.NewKey(entry.ID, entry.Version, greq.Source)
	// The log's short digest joins a grade event to its store key or a
	// resubmission without logging source.
	hash := key.SourceHash[:16]
	head := gradeHead{Assignment: entry.ID, ID: greq.ID, KBVersion: entry.Version}

	// Cache hits bypass admission entirely: serving bytes from the result
	// store needs no grading slot, which is what keeps resubmission storms
	// cheap.
	if body, hit := s.storeGet(key); hit {
		obs.ServerCacheHitsTotal.Inc()
		head.Cached = true
		writeGradeReply(w, head, body)
		s.log().Info("grade",
			"request_id", rid,
			"assignment", entry.ID,
			"source_hash", hash,
			"cached", true,
			"status", http.StatusOK,
			"elapsed_ms", float64(time.Since(t0).Microseconds())/1000)
		return
	}
	obs.ServerCacheMissTotal.Inc()

	if !s.admit(w, req, entry.ID) {
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(req.Context(), s.cfg.RequestTimeout)
	defer cancel()
	report, err := s.grader.GradeContext(ctx, greq.Source, entry.Spec)
	if err != nil {
		s.gradeError(w, err)
		s.log().Warn("grade",
			"request_id", rid,
			"assignment", entry.ID,
			"source_hash", hash,
			"cached", false,
			"error", err.Error(),
			"elapsed_ms", float64(time.Since(t0).Microseconds())/1000)
		return
	}
	body, err := marshalReport(report)
	if err != nil {
		obs.ServerErrorsTotal.Inc()
		s.fail(w, http.StatusInternalServerError, "encode report: "+err.Error())
		return
	}
	s.storePut(key, body)
	writeGradeReply(w, head, body)
	s.log().Info("grade",
		"request_id", rid,
		"assignment", entry.ID,
		"source_hash", hash,
		"cached", false,
		"status", http.StatusOK,
		"score", report.Score,
		"max_score", report.MaxScore,
		"elapsed_ms", float64(report.Elapsed.Microseconds())/1000)
}

func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	var breq BatchRequest
	entry, ok := s.decodeRequest(w, req, &breq, func() (string, string) { return breq.Assignment, "" })
	if !ok {
		return
	}
	if len(breq.Submissions) == 0 {
		s.fail(w, http.StatusBadRequest, "no submissions")
		return
	}
	obs.ServerRequestsTotal.Inc()

	resp := BatchResponse{Assignment: entry.ID, KBVersion: entry.Version}
	resp.Results = make([]BatchItem, len(breq.Submissions))

	// Resolve resubmissions from the cache first; only the residue is
	// graded. The whole batch holds one admission slot — its parallelism
	// lives inside the slot, bounded by GOMAXPROCS.
	keys := make([]store.Key, len(breq.Submissions))
	var subs []core.Submission
	var subIdx []int
	for i, sub := range breq.Submissions {
		keys[i] = store.NewKey(entry.ID, entry.Version, sub.Source)
		resp.Results[i].ID = sub.ID
		if body, hit := s.storeGet(keys[i]); hit {
			obs.ServerCacheHitsTotal.Inc()
			resp.Results[i].Cached = true
			resp.Results[i].Report = body
			resp.CacheHits++
			resp.Graded++
			continue
		}
		obs.ServerCacheMissTotal.Inc()
		subs = append(subs, core.Submission{ID: sub.ID, Src: sub.Source})
		subIdx = append(subIdx, i)
	}

	if len(subs) > 0 {
		if !s.admit(w, req, entry.ID) {
			return
		}
		defer s.adm.release()

		workers := breq.Workers
		if limit := runtime.GOMAXPROCS(0); workers <= 0 || workers > limit {
			workers = limit
		}
		ctx, cancel := context.WithTimeout(req.Context(), s.cfg.RequestTimeout)
		defer cancel()
		bg := core.NewBatchGrader(s.grader, core.BatchOptions{Workers: workers})
		results, stats := bg.GradeAll(ctx, entry.Spec, subs)
		resp.Graded += stats.Graded
		resp.Failed = stats.Failed
		resp.Cancelled = stats.Cancelled
		for j, res := range results {
			i := subIdx[j]
			if res.Err != nil {
				resp.Results[i].Error = res.Err.Error()
				continue
			}
			body, err := marshalReport(res.Report)
			if err != nil {
				resp.Results[i].Error = "encode report: " + err.Error()
				continue
			}
			resp.Results[i].Report = body
			s.storePut(keys[i], body)
		}
		if stats.Cancelled > 0 {
			obs.ServerTimeoutsTotal.Inc()
		}
	}
	resp.WallMS = float64(time.Since(t0).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
	s.log().Info("batch",
		"request_id", obs.RequestIDFrom(req.Context()),
		"assignment", entry.ID,
		"submissions", len(breq.Submissions),
		"graded", resp.Graded,
		"failed", resp.Failed,
		"cancelled", resp.Cancelled,
		"cache_hits", resp.CacheHits,
		"elapsed_ms", resp.WallMS)
}

// marshalReport encodes a report for the reply and the result store. The
// grader stamps the request's ID into Stats; it is cleared first, so the
// stored bytes do not depend on which request graded them and a store hit
// never hands back another request's ID. Each reply's own ID is in its
// X-Request-ID header; the body carries none, so a hit's bytes are the
// bytes of the reply that stored it.
func marshalReport(report *core.Report) ([]byte, error) {
	if report.Stats != nil {
		report.Stats.RequestID = ""
	}
	return json.Marshal(report)
}

// ---------------------------------------------------------------------------
// Shared request plumbing

// decodeRequest handles the method check, body decoding and assignment
// resolution shared by the grading endpoints. source is consulted only for
// its assignment component; it returns (entry, true) on success.
func (s *Server) decodeRequest(w http.ResponseWriter, req *http.Request, into any, fields func() (assignment, source string)) (*Entry, bool) {
	if req.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		obs.ServerErrorsTotal.Inc()
		s.fail(w, http.StatusBadRequest, "decode request: "+err.Error())
		return nil, false
	}
	assignment, _ := fields()
	entry := s.cfg.Registry.Get(assignment)
	if entry == nil {
		obs.ServerErrorsTotal.Inc()
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown assignment %q (GET /v1/assignments lists them)", assignment))
		return nil, false
	}
	setAssignment(req.Context(), entry.ID)
	return entry, true
}

// admit acquires a worker slot, writing the 429/504 responses on failure.
// A shed request still leaves a correlated footprint: a one-span trace with
// outcome "shed" (tail-retained, so /v1/trace/{id} finds it) and a "shed"
// log line carrying the same request ID.
func (s *Server) admit(w http.ResponseWriter, req *http.Request, assignment string) bool {
	err := s.adm.acquire(req.Context())
	switch {
	case err == nil:
		if s.onSlotAcquired != nil {
			s.onSlotAcquired()
		}
		return true
	case errors.Is(err, errQueueFull):
		obs.ServerRejectedTotal.Inc()
		rid := obs.RequestIDFrom(req.Context())
		sp := obs.StartTrace("shed/" + assignment)
		sp.SetTraceID(rid)
		sp.SetOutcome("shed")
		sp.End()
		s.log().Warn("shed",
			"request_id", rid,
			"assignment", assignment,
			"queued", s.adm.waiting(),
			"retry_after_s", retryAfterSeconds)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		s.fail(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return false
	default:
		obs.ServerTimeoutsTotal.Inc()
		s.fail(w, http.StatusServiceUnavailable, "request cancelled while queued: "+err.Error())
		return false
	}
}

// gradeError maps a grading failure to its status code.
func (s *Server) gradeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		obs.ServerTimeoutsTotal.Inc()
		s.fail(w, http.StatusGatewayTimeout, "grading deadline exceeded")
	case errors.Is(err, context.Canceled):
		obs.ServerTimeoutsTotal.Inc()
		s.fail(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		// Parse errors: the submission is at fault, not the service.
		obs.ServerErrorsTotal.Inc()
		s.fail(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// The fixed pieces writeGradeReply puts around the report bytes.
var (
	reportField = []byte(`,"report":`)
	replyEnd    = []byte("}\n")
)

// writeGradeReply writes a 200 /v1/grade reply: head's JSON with report
// spliced in, as it is, as the last field. report must be JSON; the stores
// check bodies where they enter the process. It is also compact and
// HTML-escaped (marshalReport's output), so json.Encoder's re-scan would
// leave it unchanged and the reply equals the GradeResponse's encoding. The
// exact Content-Length keeps a reply past net/http's pre-chunking buffer
// from being sent chunked.
func writeGradeReply(w http.ResponseWriter, head gradeHead, report []byte) {
	// Marshalling strings and a bool cannot fail.
	h, _ := json.Marshal(head)
	h = h[:len(h)-1] // the closing brace follows the report
	n := len(h) + len(reportField) + len(report) + len(replyEnd)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client has gone; there is no one left to tell.
	_, _ = w.Write(h)
	_, _ = w.Write(reportField)
	_, _ = w.Write(report)
	_, _ = w.Write(replyEnd)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
