package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/interp"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/obs"
	"semfeed/internal/pdg"
	"semfeed/internal/server"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run reports, named after the layer
// (module) they measure. A layer the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"http.overhead_us_p50", "us"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.rejected", "count"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.evictions", "count"},
	{"core.grade_us_p50", "us"},
	{"core.grade_us_p99", "us"},
	{"core.self_us_p50", "us"},
	{"core.method_combos_per_sub", "count"},
	{"core.match_cache_hit_ratio", "ratio"},
	{"core.batch_parallelism", "ratio"},
	{"parser.parse_us_p50", "us"},
	{"parser.bytes_per_sub", "B"},
	{"pdg.build_us_p50", "us"},
	{"pdg.nodes_per_sub", "count"},
	{"pdg.edges_per_sub", "count"},
	{"analysis.run_us_p50", "us"},
	{"analysis.findings_per_sub", "count"},
	{"match.find_us_per_sub", "us"},
	{"match.calls_per_sub", "count"},
	{"match.steps_per_sub", "count"},
	{"match.backtracks_per_sub", "count"},
	{"match.embeddings_per_sub", "count"},
	{"match.step_limit_hits", "count"},
	{"match.useful_ratio", "ratio"},
	{"constraint.check_us_per_sub", "us"},
	{"constraint.combos_per_sub", "count"},
	{"interp.compile_us_p50", "us"},
	{"functest.run_us_p50", "us"},
	{"functest.run_us_p99", "us"},
	{"interp.steps_per_sub", "count"},
	{"interp.cache_hit_ratio", "ratio"},
	{"obs.grade_overhead_pct", "%"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.sched_wait_us_p99", "us"},
	{"trace.overhead_pct", "%"},
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// newMetricSet returns every listed metric at 0.
func newMetricSet(list []struct{ name, unit string }) metricSet {
	m := metricSet{}
	for _, e := range list {
		m[e.name] = metric{Unit: e.unit}
	}
	return m
}

// set records a listed metric; an unlisted name is a bug in the benchmark.
func (m metricSet) set(name string, v float64) {
	e, ok := m[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	e.Value = v
	m[name] = e
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayItem is one source that reached a layer during the timed phase,
// replayed through that layer's public functions after it.
type replayItem struct {
	a   *assignments.Assignment
	src string
}

// replayGrading times the grading core's layers one public call at a time
// on items: parser.Parse, pdg.BuildAllWith, Driver.Run, Grader.GradeUnit,
// and GradeUnit again with semfeedd's telemetry on and off. The match and
// constraint figures are the program's own counters and timers from each
// report's Stats, summed over every binding GradeUnit scored. It returns the
// reports, for the encode replay.
func replayGrading(items []replayItem, opts core.Options, telemetryOn bool, m metricSet) ([]*core.Report, error) {
	if len(items) == 0 {
		return nil, nil
	}
	grader := core.NewGrader(opts)
	var parse, build, analysisRun, grade, self []float64
	var srcBytes, nodes, edges, findings, combos int
	var sum core.Stats
	reports := make([]*core.Report, len(items))
	units := make([]*ast.CompilationUnit, len(items))
	for k, it := range items {
		t0 := time.Now()
		unit, err := parser.Parse(it.src)
		parse = append(parse, us(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("replay parse (%s): %w", it.a.ID, err)
		}
		units[k] = unit
		srcBytes += len(it.src)

		t0 = time.Now()
		graphs := pdg.BuildAllWith(unit, opts.BuildOptions)
		build = append(build, us(time.Since(t0)))
		for _, g := range graphs {
			nodes += len(g.Nodes)
			edges += len(g.Edges)
		}
		if opts.Analyzers != nil {
			t0 = time.Now()
			diags := opts.Analyzers.Run(graphs)
			analysisRun = append(analysisRun, us(time.Since(t0)))
			findings += len(diags)
		}

		t0 = time.Now()
		rep := grader.GradeUnit(unit, it.a.Spec)
		grade = append(grade, us(time.Since(t0)))
		reports[k] = rep
		st := rep.Stats
		self = append(self, us(st.TotalTime-st.BuildTime-st.AnalysisTime-st.MatchTime-st.ConstraintTime))
		combos += st.MethodCombos
		sum.MatchCacheHits += st.MatchCacheHits
		sum.MatchCacheMisses += st.MatchCacheMisses
		sum.MatchTime += st.MatchTime
		sum.MatchCalls += st.MatchCalls
		sum.MatchSteps += st.MatchSteps
		sum.MatchBacktracks += st.MatchBacktracks
		sum.Embeddings += st.Embeddings
		sum.MatchStepLimitHits += st.MatchStepLimitHits
		sum.ConstraintTime += st.ConstraintTime
		sum.ConstraintCombos += st.ConstraintCombos
	}
	n := float64(len(items))
	p50, _ := percentile(grade, 50)
	p99, _ := percentile(grade, 99)
	m.set("core.grade_us_p50", p50)
	m.set("core.grade_us_p99", p99)
	m.set("core.self_us_p50", median(self))
	m.set("core.method_combos_per_sub", float64(combos)/n)
	m.set("core.match_cache_hit_ratio", ratio(float64(sum.MatchCacheHits), float64(sum.MatchCacheHits+sum.MatchCacheMisses)))
	m.set("parser.parse_us_p50", median(parse))
	m.set("parser.bytes_per_sub", float64(srcBytes)/n)
	m.set("pdg.build_us_p50", median(build))
	m.set("pdg.nodes_per_sub", float64(nodes)/n)
	m.set("pdg.edges_per_sub", float64(edges)/n)
	m.set("analysis.run_us_p50", median(analysisRun))
	m.set("analysis.findings_per_sub", float64(findings)/n)
	m.set("match.find_us_per_sub", us(sum.MatchTime)/n)
	m.set("match.calls_per_sub", float64(sum.MatchCalls)/n)
	m.set("match.steps_per_sub", float64(sum.MatchSteps)/n)
	m.set("match.backtracks_per_sub", float64(sum.MatchBacktracks)/n)
	m.set("match.embeddings_per_sub", float64(sum.Embeddings)/n)
	m.set("match.step_limit_hits", float64(sum.MatchStepLimitHits))
	m.set("match.useful_ratio", ratio(float64(sum.MatchSteps-sum.MatchBacktracks), float64(sum.MatchSteps)))
	m.set("constraint.check_us_per_sub", us(sum.ConstraintTime)/n)
	m.set("constraint.combos_per_sub", float64(sum.ConstraintCombos)/n)
	m.set("obs.grade_overhead_pct", gradeOverhead(grader, items, units, telemetryOn))
	return reports, nil
}

// overheadPasses is how many passes telemetryOverhead times, half of them
// with telemetry on.
const overheadPasses = 8

// telemetryOverhead times pass with semfeedd's telemetry on and off, in
// passes ordered on, off, off, on (twice) so a linear host drift hits both
// sides alike, and returns how much longer the on passes took, in percent.
// It leaves the telemetry as restoreOn says.
func telemetryOverhead(restoreOn bool, pass func() error) (float64, error) {
	defer setTelemetry(restoreOn)
	var on, off time.Duration
	for k := 0; k < overheadPasses; k++ {
		enabled := !abba(k)
		setTelemetry(enabled)
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		if enabled {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	return 100 * ratio(float64(on-off), float64(off)), nil
}

// gradeOverhead is telemetryOverhead of GradeUnit over units.
func gradeOverhead(grader *core.Grader, items []replayItem, units []*ast.CompilationUnit, restoreOn bool) float64 {
	pct, _ := telemetryOverhead(restoreOn, func() error {
		for k, u := range units {
			grader.GradeUnit(u, items[k].a.Spec)
		}
		return nil
	})
	return pct
}

// handlerRounds is how many times one pass of hitOverhead sends each body.
const handlerRounds = 5

// hitOverhead is telemetryOverhead of the store-hit path: every body, a
// grade request already in the store, goes through h, the server's own
// handler, in process and without a network, handlerRounds times per pass.
// check sees one reply per body before the timed passes; in them a reply
// other than 200 fails the replay.
func hitOverhead(h http.Handler, bodies [][]byte, check func(k int, body []byte) error) (float64, error) {
	serve := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/grade", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for k, body := range bodies {
		rec := serve(body)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("replay store hit %d: status %d", k, rec.Code)
		}
		if err := check(k, rec.Body.Bytes()); err != nil {
			return 0, fmt.Errorf("replay store hit %d: %w", k, err)
		}
	}
	return telemetryOverhead(true, func() error {
		for round := 0; round < handlerRounds; round++ {
			for k, body := range bodies {
				if rec := serve(body); rec.Code != http.StatusOK {
					return fmt.Errorf("replay store hit %d: status %d", k, rec.Code)
				}
			}
		}
		return nil
	})
}

// setTelemetry switches the program's metrics and span tracing together.
func setTelemetry(on bool) {
	if on {
		obs.Enable()
		obs.EnableTracing()
		return
	}
	obs.Disable()
	obs.DisableTracing()
}

// codecItem is one request replayed through the server's request decode and
// response encode: a store hit encodes the stored report bytes, a miss
// marshals its report first.
type codecItem struct {
	body      []byte
	report    *core.Report // nil on a store hit
	stored    []byte       // report bytes on a store hit
	kbVersion string
}

// replayCodec times decoding each request body as the grade handler does and
// encoding its response.
func replayCodec(items []codecItem, m metricSet) error {
	var dec, enc []float64
	for _, it := range items {
		t0 := time.Now()
		var req server.GradeRequest
		d := json.NewDecoder(bytes.NewReader(it.body))
		d.DisallowUnknownFields()
		if err := d.Decode(&req); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		dec = append(dec, us(time.Since(t0)))

		t0 = time.Now()
		raw := it.stored
		if it.report != nil {
			var err error
			if raw, err = json.Marshal(it.report); err != nil {
				return fmt.Errorf("replay encode: %w", err)
			}
		}
		resp := server.GradeResponse{Assignment: req.Assignment, KBVersion: it.kbVersion, Cached: it.report == nil, Report: raw}
		if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		enc = append(enc, us(time.Since(t0)))
	}
	m.set("server.decode_us", median(dec))
	m.set("server.encode_us", median(enc))
	return nil
}

// replayFunctest times interp.Cache.CompileCached and Suite.RunProgram on
// items, with one Program cache per assignment as the Table I sweep keeps
// one per row.
func replayFunctest(items []replayItem, m metricSet) error {
	if len(items) == 0 {
		return nil
	}
	caches := map[string]*interp.Cache{}
	var compile, run []float64
	var steps int
	for _, it := range items {
		unit, err := parser.Parse(it.src)
		if err != nil {
			return fmt.Errorf("replay functest parse (%s): %w", it.a.ID, err)
		}
		c := caches[it.a.ID]
		if c == nil {
			c = interp.NewCache(0)
			caches[it.a.ID] = c
		}
		t0 := time.Now()
		prog, _ := c.CompileCached(it.src, unit)
		compile = append(compile, us(time.Since(t0)))
		t0 = time.Now()
		v := it.a.Tests.RunProgram(prog)
		run = append(run, us(time.Since(t0)))
		steps += v.Steps
	}
	var hits, lookups int64
	for _, c := range caches {
		st := c.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	p50, _ := percentile(run, 50)
	p99, _ := percentile(run, 99)
	m.set("interp.compile_us_p50", median(compile))
	m.set("functest.run_us_p50", p50)
	m.set("functest.run_us_p99", p99)
	m.set("interp.steps_per_sub", float64(steps)/float64(len(items)))
	m.set("interp.cache_hit_ratio", ratio(float64(hits), float64(lookups)))
	return nil
}

// replayBatch runs core.BatchGrader.GradeUnits on GOMAXPROCS workers over
// items, grouped by assignment, and reports the pool's effective
// parallelism (BatchStats.Speedup over the whole replay).
func replayBatch(items []replayItem, opts core.Options, m metricSet) error {
	byAssignment := map[*assignments.Assignment][]*ast.CompilationUnit{}
	var order []*assignments.Assignment
	for _, it := range items {
		unit, err := parser.Parse(it.src)
		if err != nil {
			return fmt.Errorf("replay batch parse (%s): %w", it.a.ID, err)
		}
		if byAssignment[it.a] == nil {
			order = append(order, it.a)
		}
		byAssignment[it.a] = append(byAssignment[it.a], unit)
	}
	bg := core.NewBatchGrader(core.NewGrader(opts), core.BatchOptions{Workers: runtime.GOMAXPROCS(0)})
	var total core.BatchStats
	for _, a := range order {
		_, st := bg.GradeUnits(context.Background(), a.Spec, byAssignment[a])
		if st.Failed > 0 {
			return fmt.Errorf("replay batch (%s): %d failed", a.ID, st.Failed)
		}
		total.Wall += st.Wall
		total.GradeTime += st.GradeTime
	}
	m.set("core.batch_parallelism", total.Speedup())
	return nil
}
