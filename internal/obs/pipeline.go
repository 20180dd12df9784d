package obs

// The named pipeline metrics, the stable exposition surface documented in
// README.md ("Observability"). The per-grade families are sums of
// core.Stats, written in one place when core finishes a grade; the parser,
// the interpreter, the batch engine and the serving tiers count their own.
//
// Convention: counters end in _total; histograms of latencies end in
// _seconds; all names share the semfeed_ prefix.
var (
	// Parser.
	ParsesTotal      = NewCounter("semfeed_parses_total", "Compilation units parsed.")
	ParseErrorsTotal = NewCounter("semfeed_parse_errors_total", "Compilation units rejected by the parser.")
	ParseSeconds     = NewHistogram("semfeed_parse_seconds", "Parse latency per compilation unit.", nil)

	// EPDG construction (Definitions 1-3).
	EPDGBuildsTotal = NewCounter("semfeed_epdg_builds_total", "Method EPDGs constructed.")
	EPDGNodesTotal  = NewCounter("semfeed_epdg_nodes_total", "EPDG nodes created.")
	EPDGEdgesTotal  = NewCounter("semfeed_epdg_edges_total", "EPDG edges created.")

	// Algorithm 1 backtracking matcher.
	MatchCallsTotal      = NewCounter("semfeed_match_calls_total", "Pattern match searches run (FindOpts calls).")
	MatchStepsTotal      = NewCounter("semfeed_match_steps_total", "Candidate extensions tried by Algorithm 1.")
	MatchBacktracksTotal = NewCounter("semfeed_match_backtracks_total", "Candidate nodes rejected (edge or template failure).")
	MatchEmbeddingsTotal = NewCounter("semfeed_match_embeddings_total", "Embeddings found (before dominance pruning).")
	MatchStepLimitTotal  = NewCounter("semfeed_match_step_limit_total", "Searches that exhausted the step budget.")

	// Per-grade match memoization (the Algorithm 2 binding-sweep cache).
	// Every lookup is exactly a hit or a miss: lookups == hits + misses.
	MatchCacheLookupsTotal = NewCounter("semfeed_match_cache_lookups_total", "Pattern searches requested from the per-grade cache (hits + misses).")
	MatchCacheHitsTotal    = NewCounter("semfeed_match_cache_hits_total", "Pattern searches served from the per-grade cache.")
	MatchCacheMissesTotal  = NewCounter("semfeed_match_cache_misses_total", "Pattern searches computed and stored in the per-grade cache.")

	// Constraint checking (Definitions 8-10).
	ConstraintChecksTotal = NewCounter("semfeed_constraint_checks_total", "Constraint verdicts produced by Algorithm 2, including those forced NotExpected by a referenced pattern.")
	ConstraintCombosTotal = NewCounter("semfeed_constraint_combos_total", "Embedding combinations examined by constraint checks.")

	// Interpreter (functional testing back end).
	InterpRunsTotal         = NewCounter("semfeed_interp_runs_total", "Interpreter executions.")
	InterpStepsTotal        = NewCounter("semfeed_interp_steps_total", "Interpreter steps charged against the step budget, executed or fast-forwarded.")
	InterpStepsSkippedTotal = NewCounter("semfeed_interp_steps_skipped_total", "Interpreter steps charged by loop fast-forward without being executed (part of semfeed_interp_steps_total).")
	InterpStepLimitTotal    = NewCounter("semfeed_interp_step_limit_total", "Executions killed by fuel exhaustion (step budget).")

	// Closure compilation of the interpreter hot path.
	InterpCompileNS          = NewCounter("semfeed_interp_compile_ns", "Wall time spent lowering ASTs to closure code, in nanoseconds.")
	InterpCompileCacheHits   = NewCounter("semfeed_interp_compile_cache_hits", "Compiled-program cache hits (source hash already compiled).")
	InterpCompileCacheMisses = NewCounter("semfeed_interp_compile_cache_misses", "Compiled-program cache misses (fresh compilations stored).")

	// Static-analysis layer (internal/analysis).
	AnalysisRunsTotal        = NewCounter("semfeed_analysis_runs_total", "Analysis driver runs (one per analyzed submission).")
	AnalysisGraphsTotal      = NewCounter("semfeed_analysis_graphs_total", "Method EPDGs analyzed.")
	AnalysisDiagnosticsTotal = NewCounter("semfeed_analysis_diagnostics_total", "Diagnostics produced by analyzers.")
	AnalysisSeconds          = NewHistogram("semfeed_analysis_seconds", "Analysis driver latency per submission.", nil)

	// Grading engine (Algorithm 2). GradesTotal is dimensional: the
	// per-assignment, per-outcome split is what capacity planning needs
	// (status: ok | unmatched | timeout | canceled). PhaseNS is the
	// cost-attribution counter behind BENCH_tableone's *_ns columns: total
	// nanoseconds spent per pipeline phase per assignment.
	GradesTotal            = NewCounter("semfeed_grades_total", "Submissions graded, by assignment and outcome status.", "assignment", "status")
	PhaseNS                = NewCounter("semfeed_phase_ns", "Nanoseconds spent per grading phase, by assignment.", "assignment", "phase")
	GradeMatchedTotal      = NewCounter("semfeed_grade_matched_total", "Reports where a method binding was found.")
	GradeUnmatchedTotal    = NewCounter("semfeed_grade_unmatched_total", "Reports with no usable method binding.")
	GradeMethodCombos      = NewCounter("semfeed_grade_method_combos_total", "Expected-to-actual method bindings scored.")
	GradesInflight         = NewGauge("semfeed_grades_inflight", "Grades currently executing.")
	GradeSeconds           = NewHistogram("semfeed_grade_seconds", "End-to-end grade latency per submission.", nil)
	GradeScore             = NewHistogram("semfeed_grade_score", "Λ score distribution of produced reports.", ScoreBuckets)
	TraceSpansDroppedTotal = NewCounter("semfeed_trace_spans_dropped_total", "Spans dropped because a trace hit its span cap.")
	TracesDroppedTotal     = NewCounter("semfeed_traces_dropped_total", "Completed traces not retained by the trace store (sampled out or evicted).")

	// Batch grading engine (BatchGrader.GradeAll).
	BatchesTotal          = NewCounter("semfeed_batch_total", "Batch grading runs started.")
	BatchSubmissionsTotal = NewCounter("semfeed_batch_submissions_total", "Submissions graded by batch runs.")
	BatchErrorsTotal      = NewCounter("semfeed_batch_errors_total", "Batch submissions failed by parse error or isolated panic.")
	BatchCancelledTotal   = NewCounter("semfeed_batch_cancelled_total", "Batch submissions skipped due to context cancellation.")
	BatchInflight         = NewGauge("semfeed_batch_inflight", "Batch runs currently executing.")
	BatchWorkers          = NewGauge("semfeed_batch_workers", "Worker pool size of the most recent batch run.")
	BatchSeconds          = NewHistogram("semfeed_batch_seconds", "End-to-end wall time per batch run.", nil)

	// Grading service (internal/server, cmd/semfeedd).
	ServerRequestsTotal   = NewCounter("semfeed_server_requests_total", "HTTP requests accepted by the grading endpoints.")
	ServerRejectedTotal   = NewCounter("semfeed_server_rejected_total", "Requests shed with 429 because the admission queue was full.")
	ServerErrorsTotal     = NewCounter("semfeed_server_errors_total", "Grading requests that failed (bad input, unknown assignment, internal error).")
	ServerTimeoutsTotal   = NewCounter("semfeed_server_timeouts_total", "Grading requests cut by the per-request deadline.")
	ServerInflight        = NewGauge("semfeed_server_inflight", "Grading requests currently holding a worker slot.")
	ServerQueued          = NewGauge("semfeed_server_queued", "Requests currently waiting in the admission queue.")
	ServerRequestSeconds  = NewHistogram("semfeed_server_request_seconds", "End-to-end latency per grading request, by assignment and status class.", nil, "assignment", "status")
	ServerCacheHitsTotal  = NewCounter("semfeed_server_cache_hits_total", "Grading requests served from the result cache.")
	ServerCacheMissTotal  = NewCounter("semfeed_server_cache_misses_total", "Grading requests that ran the full pipeline.")
	ServerCacheEvictTotal = NewCounter("semfeed_server_cache_evictions_total", "Result-cache entries evicted by the LRU policy.")
	ServerKBReloadsTotal  = NewCounter("semfeed_server_kb_reloads_total", "Knowledge-base registry swaps (initial load and hot reloads).")
	ServerKBErrorsTotal   = NewCounter("semfeed_server_kb_errors_total", "Knowledge-base reload attempts rejected by validation.")
	ServerKBAssignments   = NewGauge("semfeed_server_kb_assignments", "Assignments currently served by the registry.")

	// Result-store tiers (internal/store).
	StoreDiskEntries         = NewGauge("semfeed_store_disk_entries", "Entries held by the disk result store.")
	StoreDiskBytes           = NewGauge("semfeed_store_disk_bytes", "Bytes of result bodies held by the disk result store.")
	StoreDiskEvictionsTotal  = NewCounter("semfeed_store_disk_evictions_total", "Disk-store entries evicted by the size cap.")
	StoreStaleEvictionsTotal = NewCounter("semfeed_store_stale_evictions_total", "Disk-store entries dropped on startup because their KB version no longer matches the registry.")
	StorePeerErrorsTotal     = NewCounter("semfeed_store_peer_errors_total", "Peer-store fills that failed in transport or returned a body that is not JSON.")

	// Cluster mode (internal/cluster, semfeedd -mode coordinator|worker).
	ClusterWorkers              = NewGauge("semfeed_cluster_workers", "Healthy workers in the coordinator's routing ring.")
	ClusterWorkersConfigured    = NewGauge("semfeed_cluster_workers_configured", "Workers in the coordinator's static membership, healthy or not.")
	ClusterReroutesTotal        = NewCounter("semfeed_cluster_reroutes_total", "Proxied requests retried on the next replica after a worker failed.")
	ClusterProbeFailuresTotal   = NewCounter("semfeed_cluster_probe_failures_total", "Worker health probes that failed.")
	ClusterMembershipSwapsTotal = NewCounter("semfeed_cluster_membership_swaps_total", "Routing-ring snapshot rebuilds from membership changes.")
	ClusterProxySeconds         = NewHistogram("semfeed_cluster_proxy_seconds", "Coordinator proxy latency per worker attempt, by worker and status class.", nil, "worker", "status")
	ClusterShardsTotal          = NewCounter("semfeed_cluster_shards_total", "Per-worker sub-batches fanned out by the coordinator.")
	ClusterPeerFillHitsTotal    = NewCounter("semfeed_cluster_peer_fill_hits_total", "Store reads served by the owning peer over HTTP.")
	ClusterPeerFillMissesTotal  = NewCounter("semfeed_cluster_peer_fill_misses_total", "Peer-fill lookups that missed (owner had no entry, owner unreachable, or key owned locally).")

	// Fleet observability plane (PR 10): membership flight recorder and
	// metrics federation.
	ClusterMembershipEventsTotal = NewCounter("semfeed_cluster_membership_events_total", "Membership flight-recorder events, by kind (worker_up | worker_down | probe_fail | ring_rebuild).", "kind")
	ClusterScrapeErrorsTotal     = NewCounter("semfeed_cluster_scrape_errors_total", "Worker statusz/metrics scrapes that failed (the worker's last-good data is served marked stale).")
)

// ScoreBuckets cover the Λ range of the assignment corpus (scores are small
// sums of per-comment weights 0, 0.5 and 1).
var ScoreBuckets = []float64{0, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 15, 20}
