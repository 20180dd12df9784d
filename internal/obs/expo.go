package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Collectors
//
// A collector refreshes derived metrics (SLO gauges, runtime gauges) lazily
// at exposition time, so the serving path never pays for them per request.

var (
	collectorsMu sync.Mutex
	collectorFns []func()
)

// RegisterCollector adds a function run before every metrics exposition and
// /statusz render.
func RegisterCollector(f func()) {
	collectorsMu.Lock()
	collectorFns = append(collectorFns, f)
	collectorsMu.Unlock()
}

// Collect runs every registered collector.
func Collect() {
	collectorsMu.Lock()
	fns := make([]func(), len(collectorFns))
	copy(fns, collectorFns)
	collectorsMu.Unlock()
	for _, f := range fns {
		f()
	}
}

// Snapshot is an expvar-style point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot summarizes one histogram with estimated quantiles.
// Bounds and Buckets carry the raw distribution (cumulative-free per-bucket
// counts, one extra overflow bucket after the last bound) so snapshots from
// different processes can be merged bucketwise (MergeSnapshots) — percentiles
// alone cannot be federated.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Counter returns a named counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// TakeSnapshot copies the default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Snapshot copies the registry's current values. Labeled families report
// their aggregate across all label sets under the bare family name, so
// callers summing totals (tests, dumpObs) need not care whether a metric
// grew labels. Labeled gauges have no meaningful aggregate and stay out.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, f := range r.families() {
		switch f.kind {
		case "counter":
			snap.Counters[f.name] = f.counterTotal()
		case "gauge":
			if f.plain != nil {
				snap.Gauges[f.name] = f.plain.v.Load()
			}
		case "histogram":
			count, sum, buckets := f.aggregate()
			snap.Histograms[f.name] = HistogramSnapshot{
				Count:   count,
				Sum:     sum,
				P50:     bucketQuantile(f.bounds, buckets, 0.50),
				P95:     bucketQuantile(f.bounds, buckets, 0.95),
				P99:     bucketQuantile(f.bounds, buckets, 0.99),
				Bounds:  f.bounds,
				Buckets: buckets,
			}
		}
	}
	return snap
}

// WriteProm writes the default registry in Prometheus text exposition format.
func WriteProm(w io.Writer) error { return Default.WriteProm(w) }

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4), family by family in exposition order.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.families() {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// ExemplarRef is one bucket→trace link, as surfaced on /statusz.
type ExemplarRef struct {
	Metric  string  `json:"metric"`
	Labels  string  `json:"labels"`
	LE      string  `json:"le"`
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Exemplars lists every live bucket→trace exemplar across the registry's
// histograms (surfaced on /statusz).
func (r *Registry) Exemplars() []ExemplarRef {
	var out []ExemplarRef
	for _, f := range r.families() {
		for _, s := range f.snapshotSeries() {
			for i := range s.exemplars {
				if ex := s.exemplars[i].Load(); ex != nil {
					out = append(out, ExemplarRef{
						Metric:  f.name,
						Labels:  f.labelPairs(s, ""),
						LE:      leBound(f.bounds, i),
						TraceID: ex.TraceID,
						Value:   ex.Value,
					})
				}
			}
		}
	}
	return out
}

// Handler serves the default registry as Prometheus text format.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		Collect()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w)
	})
}

// JSONHandler serves the default registry as an expvar-style JSON snapshot.
func JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		Collect()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(TakeSnapshot())
	})
}

// processStart anchors /statusz uptime.
var processStart = time.Now()

// Statusz is the /statusz payload: the at-a-glance health page an operator
// reads first — rolling SLO windows, runtime state, trace-store accounting
// and every gauge, one JSON document.
type Statusz struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Build         BuildInfo           `json:"build"`
	SLO           map[string]SLOStats `json:"slo"`
	Runtime       StatuszRuntime      `json:"runtime"`
	Traces        StatuszTraces       `json:"traces"`
	// Exemplars link labeled-histogram buckets to retrievable traces: the
	// most recent trace ID that landed in each bucket (see /v1/trace/{id}).
	Exemplars []ExemplarRef    `json:"exemplars,omitempty"`
	Gauges    map[string]int64 `json:"gauges"`
}

// StatuszRuntime is the runtime block of /statusz.
type StatuszRuntime struct {
	Goroutines     int64 `json:"goroutines"`
	HeapBytes      int64 `json:"heap_bytes"`
	GCRuns         int64 `json:"gc_runs"`
	GCPauseTotalNS int64 `json:"gc_pause_total_ns"`
}

// StatuszTraces is the trace-store block of /statusz.
type StatuszTraces struct {
	Stored       int   `json:"stored"`
	DroppedTotal int64 `json:"dropped_total"`
	SpanDropped  int64 `json:"spans_dropped_total"`
}

// TakeStatusz builds the /statusz payload.
func TakeStatusz() Statusz {
	Collect()
	snap := TakeSnapshot()
	return Statusz{
		UptimeSeconds: time.Since(processStart).Seconds(),
		Build:         GetBuildInfo(),
		SLO: map[string]SLOStats{
			"1m": SLO.Stats(time.Minute),
			"5m": SLO.Stats(5 * time.Minute),
		},
		Runtime: StatuszRuntime{
			Goroutines:     RuntimeGoroutines.Value(),
			HeapBytes:      RuntimeHeapBytes.Value(),
			GCRuns:         RuntimeGCRuns.Value(),
			GCPauseTotalNS: RuntimeGCPauseTotal.Value(),
		},
		Traces: StatuszTraces{
			Stored:       StoredTraces(),
			DroppedTotal: TracesDroppedTotal.Value(),
			SpanDropped:  TraceSpansDroppedTotal.Value(),
		},
		Exemplars: Default.Exemplars(),
		Gauges:    snap.Gauges,
	}
}

// StatuszHandler serves the /statusz JSON health page.
func StatuszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(TakeStatusz())
	})
}

// AttachPprof mounts the net/http/pprof profile handlers under
// /debug/pprof/ on mux. Kept behind an explicit call (semfeedd -pprof, the
// CLIs' metrics mux) rather than the package's silent DefaultServeMux
// side effect.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// TraceHandler serves the most recent recorded trace: the rendered span tree
// as text, or the full structure with ?format=json.
func TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		td := LastTrace()
		if td == nil {
			http.Error(w, "no trace recorded (is tracing enabled?)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(td)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, td.Tree())
	})
}

// Mux returns the standard observability endpoint set the CLIs serve under
// -metrics-addr: /metrics (Prometheus text), /metrics.json (snapshot),
// /trace (latest span tree) and /statusz (SLO windows + runtime).
func Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler())
	mux.Handle("/metrics.json", JSONHandler())
	mux.Handle("/trace", TraceHandler())
	mux.Handle("/statusz", StatuszHandler())
	return mux
}

// StartServer enables metrics and serves Mux on addr in a background
// goroutine. It returns the *http.Server so the caller can drain it with
// Shutdown (the CLIs stop it on exit; semfeedd ties it into SIGTERM drain),
// plus the server's terminal error channel. ErrServerClosed is swallowed:
// a graceful Shutdown is not an error the caller needs to see.
func StartServer(addr string) (*http.Server, <-chan error) {
	Enable()
	srv := &http.Server{Addr: addr, Handler: Mux()}
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return srv, errc
}

// Serve is StartServer without the shutdown handle, for fire-and-forget
// callers that live exactly as long as the process.
func Serve(addr string) <-chan error {
	_, errc := StartServer(addr)
	return errc
}
