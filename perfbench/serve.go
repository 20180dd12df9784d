package main

import (
	"bytes"
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
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/obs"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

const (
	// requestTimeout bounds one client round trip, so a hung request
	// becomes a failed operation instead of a hung run.
	requestTimeout = 10 * time.Second
	// shutdownTimeout bounds Server.Shutdown at the end of a run.
	shutdownTimeout = 10 * time.Second
)

// configureServeTelemetry applies semfeedd's default telemetry: metrics on,
// tracing on (sample 1, capacity 256, slow threshold 100 ms) and an
// info-level text logger. The logger writes to a discarded sink, so record
// formatting still costs and I/O does not.
func configureServeTelemetry() *slog.Logger {
	obs.Enable()
	obs.EnableTracing()
	obs.SetSlowTraceThreshold(100 * time.Millisecond)
	obs.SetTraceSampling(1)
	obs.SetTraceCapacity(256)
	logger := obs.NewLogger(io.Discard, "text", slog.LevelInfo)
	obs.SetLogger(logger)
	return logger
}

// serveGradeOptions are the grader options of the serve workloads: every
// static analyzer on, as semfeedd's default -analyzers all.
func serveGradeOptions() core.Options { return core.Options{Analyzers: analysis.DefaultDriver()} }

// serveEnv is one in-process grading server configured as semfeedd runs by
// default, listening on loopback. A traced run adds a second listener, owned
// by the benchmark, whose handler records a span around Server.Handler(),
// and puts a timingStore in front of the memory store.
type serveEnv struct {
	reg       *server.Registry
	srv       *server.Server
	plainURL  string
	plainErrc <-chan error

	log        *spanLog     // traced runs only
	store      *timingStore // traced runs only
	tracedURL  string
	tracedSrv  *http.Server
	tracedErrc chan error
}

func startServe(traced bool) (*serveEnv, error) {
	logger := configureServeTelemetry()
	env := &serveEnv{reg: server.NewRegistry("", nil)}
	for _, a := range assignments.All() {
		env.reg.AddBuiltin(a.ID, a.Spec)
	}
	if err := env.reg.Load(); err != nil {
		return nil, fmt.Errorf("load KB: %w", err)
	}
	mem := store.NewMemory(storeEntries)
	var st store.Store = mem
	if traced {
		env.log = newSpanLog()
		env.store = &timingStore{inner: mem, log: env.log}
		st = env.store
	}
	env.srv = server.New(server.Config{
		Registry:      env.reg,
		GradeOptions:  serveGradeOptions(),
		MaxConcurrent: runtime.GOMAXPROCS(0),
		QueueDepth:    64,
		Store:         st,
		Logger:        logger,
	})
	errc, err := env.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	env.plainErrc = errc
	env.plainURL = "http://" + env.srv.Addr()
	if traced {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(fmt.Errorf("traced listener: %w", err), env.close())
		}
		env.tracedURL = "http://" + ln.Addr().String()
		env.tracedSrv = &http.Server{Handler: env.log.handler(env.srv.Handler())}
		env.tracedErrc = make(chan error, 1)
		go func() {
			err := env.tracedSrv.Serve(ln)
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			env.tracedErrc <- err
		}()
	}
	return env, nil
}

// stopTraced drains the traced listener and waits for its serve loop, so
// every handler span has been recorded; it is a no-op after the first call.
func (e *serveEnv) stopTraced() error {
	if e.tracedSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := errors.Join(e.tracedSrv.Shutdown(ctx), <-e.tracedErrc)
	e.tracedSrv = nil
	return err
}

// close drains both listeners with Shutdown and waits for their serve loops
// to return.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	return errors.Join(e.stopTraced(), e.srv.Shutdown(ctx), <-e.plainErrc)
}

// loadClient is the closed-loop client: at most conns keep-alive
// connections, every request under requestTimeout.
type loadClient struct {
	url       string
	transport *http.Transport
	httpc     *http.Client
	dials     atomic.Int64 // connections opened
}

func newLoadClient(baseURL string, conns int) *loadClient {
	lc := &loadClient{url: baseURL + "/v1/grade"}
	dialer := &net.Dialer{Timeout: requestTimeout}
	lc.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			lc.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	lc.httpc = &http.Client{Transport: lc.transport, Timeout: requestTimeout}
	return lc
}

// post sends one grade request and reads the whole response into buf.
func (lc *loadClient) post(body []byte, rid string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, lc.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := lc.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (lc *loadClient) close() { lc.transport.CloseIdleConnections() }

// gradeAll posts subs over `clients` concurrent callers outside any timed
// phase (warm-up and pool grading), failing on any non-200 response.
// onReply, when set, receives each reply body; it runs concurrently.
func (lc *loadClient) gradeAll(subs []submission, clients int, onReply func(j int, body []byte) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1) - 1)
				if j >= len(subs) {
					return
				}
				status, err := lc.post(subs[j].body, "pb-setup-"+strconv.Itoa(j), &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(buf.String()))
				}
				if err == nil && onReply != nil {
					err = onReply(j, buf.Bytes())
				}
				if err != nil {
					errs[w] = fmt.Errorf("set-up request %d (%s): %w", j, assignments.All()[subs[j].assignment].ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveLoad is a serve workload's request stream and its per-reply check.
// next is shared by every phase of a run, so no request index repeats.
type serveLoad struct {
	next  atomic.Int64
	gen   func(i int64) submission
	check func(i int64, sub submission, body []byte) bool
}

// phaseStats is what one closed-loop phase measured.
type phaseStats struct {
	attempted, failed, rejected int64
	ok                          int64
	wall                        time.Duration
	latMS                       []float64
	cpu                         time.Duration
	rt                          runtimeDelta
	errors                      []string // first few failures, for stderr
}

func (p *phaseStats) opsPerSec() float64 { return ratio(float64(p.ok), p.wall.Seconds()) }

// add accumulates q's counts, times and runtime work; latencies stay with
// each phase.
func (p *phaseStats) add(q *phaseStats) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.rejected += q.rejected
	p.ok += q.ok
	p.wall += q.wall
	p.cpu += q.cpu
	p.rt.add(q.rt)
	p.errors = append(p.errors, q.errors...)
}

// runPhase drives load for d with `clients` closed-loop callers: each sends
// its next request only when the previous reply has been read and checked.
// The phase ends when every caller has finished the request in flight at
// the deadline. With log set, every request also gets a client span.
func runPhase(lc *loadClient, load *serveLoad, clients int, d time.Duration, log *spanLog) *phaseStats {
	per := make([]phaseStats, clients)
	var wg sync.WaitGroup
	cpu0, rt0 := processCPU(), readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := &per[w]
			defer func() {
				if r := recover(); r != nil {
					ps.failed++
					ps.errors = append(ps.errors, fmt.Sprintf("client panic: %v", r))
				}
			}()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := load.next.Add(1) - 1
				sub := load.gen(i)
				begin := time.Now()
				status, err := lc.post(sub.body, requestID(i), &buf)
				end := time.Now()
				if log != nil {
					log.add(span{kind: spanClient, req: i, iv: interval{int64(begin.Sub(log.epoch)), int64(end.Sub(log.epoch))}})
				}
				ps.attempted++
				var fail string
				switch {
				case err != nil:
					fail = err.Error()
				case status != http.StatusOK:
					fail = fmt.Sprintf("status %d: %.200s", status, strings.TrimSpace(buf.String()))
					if status == http.StatusTooManyRequests || status >= 500 {
						ps.rejected++
					}
				case !load.check(i, sub, buf.Bytes()):
					fail = fmt.Sprintf("request %d: wrong output", i)
				}
				if fail != "" {
					ps.failed++
					if len(ps.errors) < 5 {
						ps.errors = append(ps.errors, fail)
					}
					continue
				}
				ps.ok++
				ps.latMS = append(ps.latMS, float64(end.Sub(begin))/1e6)
			}
		}(w)
	}
	wg.Wait()
	total := &phaseStats{}
	for w := range per {
		total.add(&per[w])
		total.latMS = append(total.latMS, per[w].latMS...)
	}
	total.wall = time.Since(start)
	total.cpu = processCPU() - cpu0
	total.rt = readRuntime().sub(rt0)
	return total
}

// gradeReply is the part of a /v1/grade response the serve-cold check reads.
type gradeReply struct {
	Cached bool `json:"cached"`
	Report struct {
		Score    float64
		Comments []struct{ Status string }
	} `json:"report"`
}

// outcome renders a grade's score and per-comment statuses, the output
// serve-cold checks and the pins record: the score, then one letter per
// comment (C Correct, I Incorrect, N NotExpected).
func outcome(score float64, statuses []string) string {
	b := []byte(strconv.FormatFloat(score, 'g', -1, 64) + " ")
	for _, s := range statuses {
		switch s {
		case "Correct", "Incorrect", "NotExpected":
			b = append(b, s[0])
		default:
			b = append(b, '?')
		}
	}
	return string(b)
}

func reportOutcome(rep *core.Report) string {
	st := make([]string, len(rep.Comments))
	for i, c := range rep.Comments {
		st[i] = c.Status.String()
	}
	return outcome(rep.Score, st)
}

// coldCheck checks serve-cold's replies: each must be a fresh grade
// (cached:false) whose outcome equals that of every other reply for the same
// base variant (a trailing comment cannot change a grade). After the timed
// phase, verify grades each variant's first request with core.Grader.Grade
// and, at the default seed, compares it with the pin. Memory stays bounded
// by the number of variants, whatever the request count.
type coldCheck struct {
	inputs *coldInputs
	mu     sync.Mutex
	first  map[[2]int]*coldReply // first reply of each variant
}

type coldReply struct {
	i       int64 // request index
	outcome string
	n       int64 // replies of the variant that matched it
}

func newColdCheck(in *coldInputs) *coldCheck {
	return &coldCheck{inputs: in, first: map[[2]int]*coldReply{}}
}

func (c *coldCheck) check(i int64, sub submission, body []byte) bool {
	var r gradeReply
	if err := json.Unmarshal(body, &r); err != nil || r.Cached {
		return false
	}
	st := make([]string, len(r.Report.Comments))
	for k, cm := range r.Report.Comments {
		st[k] = cm.Status
	}
	got := outcome(r.Report.Score, st)
	key := [2]int{sub.assignment, sub.variant}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.first[key]
	if first == nil {
		c.first[key] = &coldReply{i: i, outcome: got, n: 1}
		return true
	}
	if got != first.outcome {
		return false
	}
	first.n++
	return true
}

// verify grades the first request of every variant seen with
// core.Grader.Grade and compares the replies with it and, at the default
// seed, with the pin. It returns the number of wrong replies and the first.
func (c *coldCheck) verify(seed int64, p *pins) (wrong int64, firstErr string) {
	grader := core.NewGrader(serveGradeOptions())
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, r := range c.first {
		var want string
		rep, err := grader.Grade(c.inputs.request(r.i).source, c.inputs.all[key[0]].Spec)
		if err != nil {
			want = "grade error: " + err.Error()
		} else {
			want = reportOutcome(rep)
		}
		if pin, ok := p.Cold[c.inputs.variantKey(key[0], key[1])]; seed == defaultSeed && (!ok || pin != want) {
			want = fmt.Sprintf("pin mismatch: pinned %q, graded %q", pin, want)
		}
		if r.outcome != want {
			wrong += r.n
			if firstErr == "" {
				firstErr = fmt.Sprintf("request %d (%s): got %q, want %q", r.i, c.inputs.variantKey(key[0], key[1]), r.outcome, want)
			}
		}
	}
	return wrong, firstErr
}

// resubmitCheck compares every serve-resubmit reply with the reply its pool
// entry must produce: cached:true around the report bytes returned when the
// pool was graded.
type resubmitCheck struct {
	report [][]byte // per pool entry: report bytes from set-up
	body   [][]byte // per pool entry: the full cached reply those bytes imply
}

func (c *resubmitCheck) check(_ int64, sub submission, body []byte) bool {
	if bytes.Equal(body, c.body[sub.variant]) {
		return true
	}
	var r server.GradeResponse
	return json.Unmarshal(body, &r) == nil && r.Cached && bytes.Equal(r.Report, c.report[sub.variant])
}

// gradePool grades every pool entry once (set-up) and records the reply
// each later resubmission must produce.
func gradePool(lc *loadClient, pool *resubmitPool, clients int) (*resubmitCheck, error) {
	c := &resubmitCheck{report: make([][]byte, len(pool.entries)), body: make([][]byte, len(pool.entries))}
	err := lc.gradeAll(pool.entries, clients, func(j int, body []byte) error {
		var r server.GradeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Cached {
			return errors.New("pool entry already stored before it was graded")
		}
		r.Cached = true
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			return err
		}
		c.report[j] = r.Report
		c.body[j] = buf.Bytes()
		return nil
	})
	return c, err
}
