// Command semfeedd is the long-running grading service: the paper's feedback
// engine behind an HTTP JSON API, sized for MOOC-scale traffic. It serves the
// twelve built-in assignments plus any definition files in -kb-dir, which it
// hot-reloads on a poll interval without interrupting in-flight grades.
//
// Usage:
//
//	semfeedd -addr :8080
//	semfeedd -addr :8080 -kb-dir /etc/semfeed/kb -poll 5s
//	semfeedd -addr :8080 -no-builtin -kb-dir ./kb      # file-backed KB only
//	semfeedd -addr :8080 -log-format json -pprof       # production observability
//
// Cluster mode (see README "Running a cluster"):
//
//	semfeedd -mode worker -addr :8081 -store disk -store-dir /var/semfeed/w1
//	semfeedd -mode worker -addr :8082 -store disk -store-dir /var/semfeed/w2 \
//	         -self http://127.0.0.1:8082 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//	semfeedd -mode coordinator -addr :8080 \
//	         -cluster-workers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Endpoints:
//
//	POST /v1/grade        grade one submission        {"assignment","id","source"}
//	POST /v1/batch        grade a batch               {"assignment","submissions":[...]}
//	GET  /v1/assignments  list served assignments
//	GET  /v1/trace/{id}   retained trace by request ID (?format=text for the tree);
//	                      on a coordinator: the assembled cross-process tree —
//	                      every process's fragment stitched under the proxy span
//	GET  /v1/store/{key}  content-addressed result store (workers; peer fill)
//	GET  /v1/cluster/statusz      fleet pane: per-worker health, build, SLOs,
//	                              store occupancy, ring share (coordinator)
//	GET  /v1/cluster/metrics.json federated metrics rollup + per-worker breakdown
//	GET  /v1/events       membership flight recorder (coordinator)
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining, with no KB, or — on a
//	                      coordinator — with zero healthy workers)
//	GET  /statusz         rolling SLO windows + runtime state, JSON
//	GET  /metrics         Prometheus exposition (also /metrics.json, /debug/traces)
//	GET  /debug/pprof/    runtime profiles (only with -pprof)
//
// Every response carries X-Request-ID (minted, or adopted from the request);
// the same ID keys the grade's structured log line, its Report.Stats block
// and its /v1/trace/{id} entry. A coordinator forwards the ID and a W3C
// traceparent to the worker it routes to, so one ID spans the whole cluster.
//
// Overload is shed with 429 + Retry-After once the admission queue is full;
// a coordinator forwards a worker's 429 (and its Retry-After) verbatim.
// SIGTERM or SIGINT drains gracefully: readiness flips, the listener closes,
// and in-flight requests complete (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/assignments"
	"semfeed/internal/cluster"
	"semfeed/internal/core"
	"semfeed/internal/obs"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		mode         = flag.String("mode", "standalone", `process role: "standalone" (grade directly), "worker" (grade as a cluster member), or "coordinator" (route to -cluster-workers, grade nothing)`)
		kbDir        = flag.String("kb-dir", "", "directory of assignment definition files to serve and hot-reload")
		poll         = flag.Duration("poll", 5*time.Second, "KB directory poll interval")
		noBuiltin    = flag.Bool("no-builtin", false, "serve only -kb-dir definitions, not the built-in assignments")
		queue        = flag.Int("queue", 64, "admission queue depth before requests are shed with 429")
		workers      = flag.Int("workers", 0, "max concurrent grading requests (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-request grading deadline")
		cacheSize    = flag.Int("cache", 4096, "memory result-store capacity in entries (0 or negative disables)")
		storeKind    = flag.String("store", "memory", `result store backend: "memory" or "disk"`)
		storeDir     = flag.String("store-dir", "", "disk store directory (required with -store disk)")
		storeMaxMB   = flag.Int64("store-max-mb", 256, "disk store size cap in MiB before LRU eviction")
		self         = flag.String("self", "", "this worker's own base URL, as it appears in -peers")
		peers        = flag.String("peers", "", "comma-separated worker base URLs for ring-aware peer cache fill (requires -self)")
		clusterList  = flag.String("cluster-workers", "", "comma-separated worker base URLs to route to (coordinator mode; required)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "worker /readyz health-probe period (coordinator mode)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per worker on the routing ring")
		proxyTimeout = flag.Duration("proxy-timeout", 15*time.Second, "one proxied grade attempt's deadline (coordinator mode; keep above the workers' -timeout)")
		shardTimeout = flag.Duration("shard-timeout", 60*time.Second, "one batch shard's deadline (coordinator mode)")
		scrapeTO     = flag.Duration("scrape-timeout", 3*time.Second, "one worker's statusz/metrics scrape or trace fetch deadline (coordinator mode)")
		proxyRetries = flag.Int("proxy-retries", cluster.DefaultReplicas, "extra ring replicas a failed grade is retried on (coordinator mode; 0 disables rerouting)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		analyzers    = flag.String("analyzers", "all", `static analyzers run on every submission: "all", "none", or a comma-separated name list (assignment definitions may override per assignment)`)
		logFormat    = flag.String("log-format", "text", `structured log format: "text" or "json"`)
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOn      = flag.Bool("trace", true, "record per-grade span traces (served at /v1/trace/{id})")
		traceSlow    = flag.Duration("trace-slow", 100*time.Millisecond, "traces at least this slow are always retained")
		traceSample  = flag.Int("trace-sample", 1, "keep 1 in N normal (fast, successful) traces; anomalous ones are always kept")
		traceCap     = flag.Int("trace-cap", 256, "retained trace capacity")
		traceExport  = flag.String("trace-export", "", "JSONL file persisting every completed trace across restarts (empty disables)")
		traceExpMax  = flag.Int64("trace-export-max", 0, "rotate the -trace-export file beyond this many bytes (0 = 64 MiB)")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("semfeedd"))
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("bad -log-level", "error", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)
	obs.SetLogger(logger)

	obs.Enable()
	if *traceOn {
		obs.EnableTracing()
		obs.SetSlowTraceThreshold(*traceSlow)
		obs.SetTraceSampling(*traceSample)
		obs.SetTraceCapacity(*traceCap)
	}
	if *traceExport != "" {
		exp, err := obs.NewJSONLExporter(*traceExport, *traceExpMax)
		if err != nil {
			logger.Error("open -trace-export failed", "path", *traceExport, "error", err)
			os.Exit(1)
		}
		obs.SetSpanExporter(exp)
		defer exp.Close()
	}

	switch *mode {
	case "coordinator":
		if *proxyRetries < 0 {
			logger.Error("bad -proxy-retries: must be >= 0 (0 disables rerouting)")
			os.Exit(2)
		}
		runCoordinator(logger, coordinatorFlags{
			addr:         *addr,
			workers:      splitList(*clusterList),
			probeEvery:   *probeEvery,
			vnodes:       *vnodes,
			proxyTimeout: *proxyTimeout,
			shardTimeout: *shardTimeout,
			scrapeTO:     *scrapeTO,
			retries:      *proxyRetries,
			drainTimeout: *drainTimeout,
		})
		return
	case "standalone", "worker":
		// Identical serving paths; "worker" only documents intent (and is what
		// cluster_smoke.sh and the README examples use). Both accept -peers.
	default:
		logger.Error(`bad -mode: want "standalone", "worker" or "coordinator"`, "mode", *mode)
		os.Exit(2)
	}

	var driver *analysis.Driver
	switch *analyzers {
	case "all":
		driver = analysis.DefaultDriver()
	case "none", "":
		driver = nil
	default:
		d, err := analysis.Default().Driver(strings.Split(*analyzers, ","), nil)
		if err != nil {
			logger.Error("bad -analyzers", "error", err)
			os.Exit(2)
		}
		driver = d
	}

	reg := server.NewRegistry(*kbDir, logger)
	if !*noBuiltin {
		for _, a := range assignments.All() {
			reg.AddBuiltin(a.ID, a.Spec)
		}
	}
	if err := reg.Load(); err != nil {
		logger.Error("load KB failed", "error", err)
		os.Exit(1)
	}
	if reg.Len() == 0 {
		logger.Error("no assignments to serve (empty -kb-dir and -no-builtin)")
		os.Exit(1)
	}
	if *kbDir != "" {
		reg.Start(*poll)
		defer reg.Stop()
	}

	resultStore, err := buildStore(logger, reg, *storeKind, *storeDir, *storeMaxMB, *cacheSize)
	if err != nil {
		logger.Error("result store setup failed", "error", err)
		os.Exit(2)
	}
	if peerList := splitList(*peers); len(peerList) > 0 && resultStore != nil {
		if *self == "" {
			logger.Error("-peers requires -self (this worker's own base URL)")
			os.Exit(2)
		}
		resultStore = cluster.NewPeerFill(resultStore, *self, peerList, *vnodes)
		logger.Info("peer fill enabled", "self", *self, "peers", len(peerList))
	}

	srv := server.New(server.Config{
		Registry:       reg,
		GradeOptions:   core.Options{Analyzers: driver},
		MaxConcurrent:  *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Store:          resultStore,
		Logger:         logger,
		EnablePprof:    *pprofOn,
	})
	errc, err := srv.Start(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"mode", *mode,
		"assignments", reg.Len(),
		"addr", srv.Addr(),
		"store", *storeKind,
		"revision", obs.GetBuildInfo().Revision,
		"pprof", *pprofOn,
		"tracing", *traceOn,
		"trace_export", *traceExport)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		t0 := time.Now()
		logger.Info("draining", "signal", s.String(), "drain_timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain failed", "error", err)
			os.Exit(1)
		}
		<-errc
		logger.Info("drained cleanly", "duration_ms", float64(time.Since(t0).Microseconds())/1000)
	case err := <-errc:
		if err != nil {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	}
}

// buildStore constructs the grading server's result store. A disk store is
// validated against the loaded registry on startup: entries whose KB version
// no longer matches the live assignment are evicted before serving begins, so
// a KB rolled forward while the process was down cannot resurface stale
// feedback.
func buildStore(logger *slog.Logger, reg *server.Registry, kind, dir string, maxMB int64, cacheSize int) (store.Store, error) {
	switch kind {
	case "memory":
		if cacheSize <= 0 {
			return nil, nil
		}
		return store.NewMemory(cacheSize), nil
	case "disk":
		if dir == "" {
			return nil, fmt.Errorf(`-store disk requires -store-dir`)
		}
		d, err := store.NewDisk(dir, maxMB<<20)
		if err != nil {
			return nil, err
		}
		evicted := d.Validate(func(assignment, kbVersion string) bool {
			e := reg.Get(assignment)
			return e != nil && e.Version == kbVersion
		})
		logger.Info("disk store opened",
			"dir", dir,
			"entries", d.Len(),
			"stale_evicted", evicted)
		return d, nil
	default:
		return nil, fmt.Errorf(`bad -store %q: want "memory" or "disk"`, kind)
	}
}

type coordinatorFlags struct {
	addr         string
	workers      []string
	probeEvery   time.Duration
	vnodes       int
	proxyTimeout time.Duration
	shardTimeout time.Duration
	scrapeTO     time.Duration
	retries      int
	drainTimeout time.Duration
}

func runCoordinator(logger *slog.Logger, cf coordinatorFlags) {
	if len(cf.workers) == 0 {
		logger.Error("-mode coordinator requires -cluster-workers")
		os.Exit(2)
	}
	coord := cluster.New(cluster.Config{
		Workers:       cf.workers,
		VNodes:        cf.vnodes,
		ProbeInterval: cf.probeEvery,
		ProxyTimeout:  cf.proxyTimeout,
		ShardTimeout:  cf.shardTimeout,
		ScrapeTimeout: cf.scrapeTO,
		Replicas:      cf.retries,
		Logger:        logger,
	})
	errc, err := coord.Start(cf.addr)
	if err != nil {
		logger.Error("listen failed", "addr", cf.addr, "error", err)
		os.Exit(1)
	}
	logger.Info("serving",
		"mode", "coordinator",
		"addr", coord.Addr(),
		"workers", len(cf.workers),
		"revision", obs.GetBuildInfo().Revision)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		t0 := time.Now()
		logger.Info("draining", "signal", s.String(), "drain_timeout", cf.drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), cf.drainTimeout)
		defer cancel()
		if err := coord.Shutdown(ctx); err != nil {
			logger.Error("drain failed", "error", err)
			os.Exit(1)
		}
		<-errc
		logger.Info("drained cleanly", "duration_ms", float64(time.Since(t0).Microseconds())/1000)
	case err := <-errc:
		if err != nil {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	}
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
