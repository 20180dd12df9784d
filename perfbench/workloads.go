package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/bench"
	"semfeed/internal/core"
	"semfeed/internal/store"
)

// sliceLength is the length of one slice of a serve workload's timed phase.
// End-to-end metrics are medians over slices: the host's speed drifts on a
// scale of seconds, and a median discounts the slices a burst of outside
// load lands in.
const sliceLength = time.Second

// slice is one slice of a timed phase: a serve phase of sliceLength, or one
// Table I sweep.
type slice struct {
	ops   int64 // correct operations completed
	wall  time.Duration
	cpu   time.Duration
	latMS []float64 // per-request latency (serve phases)
}

func (s slice) opsPerSec() float64 { return ratio(float64(s.ops), s.wall.Seconds()) }

// sliceCount splits d into slices of about sliceLength, at least one.
func sliceCount(d time.Duration) int {
	n := int((d + sliceLength/2) / sliceLength)
	if n < 1 {
		n = 1
	}
	return n
}

// abba says whether slice k of a traced run is traced: the order untraced,
// traced, traced, untraced repeats, so a linear drift in host speed weighs
// on both sides alike.
func abba(k int) bool { return k%4 == 1 || k%4 == 2 }

// endToEndMetrics reports an untraced run: the median over slices of each
// slice's throughput and CPU per operation, the run's latency percentiles,
// the peak resident set, and the median set-up time over the probes.
func endToEndMetrics(slices []slice, latP50, latP99 float64, setup []float64, stderr io.Writer) metricSet {
	var ops, cpus []float64
	for _, s := range slices {
		ops = append(ops, s.opsPerSec())
		cpus = append(cpus, ratio(ms(s.cpu), float64(s.ops)))
	}
	fmt.Fprintf(stderr, "perfbench: %d slices, ops/s %.1f cpu_ms %.4f; set-up probes %v s\n", len(slices), ops, cpus, setup)
	m := newMetricSet(endToEnd)
	m.set("ops_per_s", median(ops))
	m.set("lat_p50_ms", latP50)
	m.set("lat_p99_ms", latP99)
	m.set("cpu_ms_per_op", median(cpus))
	m.set("rss_peak_mb", peakRSSMB())
	m.set("setup_s", median(setup))
	return m
}

// requestLatency is a serve run's latency: the median over slices of each
// slice's p50 and p99 client round trip.
func requestLatency(slices []slice, stderr io.Writer) (p50, p99 float64) {
	var p50s, p99s []float64
	var samples, beyond int
	for _, s := range slices {
		a, _ := percentile(s.latMS, 50)
		b, n := percentile(s.latMS, 99)
		p50s = append(p50s, a)
		p99s = append(p99s, b)
		samples += len(s.latMS)
		beyond += n
	}
	fmt.Fprintf(stderr, "perfbench: %d latency samples, %d beyond the slices' p99; slices p50 %.4f p99 %.4f\n", samples, beyond, p50s, p99s)
	return median(p50s), median(p99s)
}

// sweepLatency is tableone's latency: the wall time of one whole Table I
// sweep, the median and the p99 (with a few sweeps a run, the slowest) over
// the run's sweeps.
func sweepLatency(sweeps []slice, stderr io.Writer) (p50, p99 float64) {
	walls := make([]float64, len(sweeps))
	for k, s := range sweeps {
		walls[k] = ms(s.wall)
	}
	fmt.Fprintf(stderr, "perfbench: sweeps ms %.1f\n", walls)
	p99, _ = percentile(walls, 99)
	return median(walls), p99
}

// setRuntimeMetrics reports the Go runtime's work per completed operation.
func setRuntimeMetrics(m metricSet, rt *runtimeDelta, ops int64, cpu time.Duration) {
	m.set("runtime.alloc_kb_per_op", ratio(float64(rt.allocBytes)/1024, float64(ops)))
	m.set("runtime.allocs_per_op", ratio(float64(rt.allocObjects), float64(ops)))
	m.set("runtime.gc_cpu_pct", 100*ratio(rt.gcCPU, cpu.Seconds()))
	m.set("runtime.sched_wait_us_p99", rt.schedWaitP99()*1e6)
}

// traceOverhead is how much slower, in percent, the traced slices ran than
// the untraced ones, by the median throughput of each side.
func traceOverhead(plain, traced []float64) float64 {
	u := median(plain)
	return 100 * ratio(u-median(traced), u)
}

// reportErrors prints the first failures of a run to stderr.
func reportErrors(stderr io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", e)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveRun is a serve workload after set-up.
type serveRun struct {
	seed    int64
	clients int
	env     *serveEnv
	lc      *loadClient // to the plain listener
	tlc     *loadClient // to the traced listener (traced runs)
	load    *serveLoad
	cold    *coldCheck     // serve-cold
	resub   *resubmitCheck // serve-resubmit
}

// setupServe is everything before the first timed request: the registry
// load, the server start and the warm-up, and on serve-resubmit grading the
// pool.
func setupServe(workload string, seed int64, traced bool) (*serveRun, error) {
	env, err := startServe(traced)
	if err != nil {
		return nil, err
	}
	r := &serveRun{seed: seed, clients: runtime.NumCPU(), env: env}
	r.lc = newLoadClient(env.plainURL, r.clients)
	if traced {
		r.tlc = newLoadClient(env.tracedURL, r.clients)
	}
	if err := r.lc.gradeAll(warmupInputs(), r.clients, nil); err != nil {
		return nil, errors.Join(err, r.close())
	}
	switch workload {
	case "serve-cold":
		in := newColdInputs(seed)
		r.cold = newColdCheck(in)
		r.load = &serveLoad{gen: in.request, check: r.cold.check}
	case "serve-resubmit":
		pool := newResubmitPool(seed)
		if r.resub, err = gradePool(r.lc, pool, r.clients); err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.load = &serveLoad{gen: pool.request, check: r.resub.check}
	}
	return r, nil
}

func (r *serveRun) close() error {
	r.lc.close()
	if r.tlc != nil {
		r.tlc.close()
	}
	return r.env.close()
}

// verify runs the checks deferred past the timed phase and books wrong
// replies as failed operations.
func (r *serveRun) verify(ps *phaseStats, p *pins) {
	if r.cold == nil {
		return
	}
	wrong, first := r.cold.verify(r.seed, p)
	ps.failed += wrong
	ps.ok -= wrong
	if first != "" {
		ps.errors = append(ps.errors, first)
	}
}

func runServe(o options, p *pins, kids *children, stderr io.Writer) (res *result, err error) {
	var setup []float64
	if !o.trace {
		if setup, err = measureSetup(kids, o.workload, o.seed, stderr); err != nil {
			return nil, err
		}
	}
	r, err := setupServe(o.workload, o.seed, o.trace)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := r.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shut down: %w", cerr)
		}
	}()
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return r.traced(d, p, o.spans, stderr)
	}
	n := sliceCount(d)
	var all phaseStats
	var slices []slice
	for k := 0; k < n; k++ {
		ps := runPhase(r.lc, r.load, r.clients, d/time.Duration(n), nil)
		slices = append(slices, slice{ops: ps.ok, wall: ps.wall, cpu: ps.cpu, latMS: ps.latMS})
		all.add(ps)
	}
	r.verify(&all, p)
	reportErrors(stderr, all.errors)
	fmt.Fprintf(stderr, "perfbench: %s: %d requests on %d connections\n", o.workload, all.attempted, r.lc.dials.Load())
	p50, p99 := requestLatency(slices, stderr)
	m := endToEndMetrics(slices, p50, p99, setup, stderr)
	return &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// traced runs d in slices, alternately untraced and traced (see abba): the
// untraced slices give the runtime counters and the baseline of
// trace.overhead_pct, the traced ones the spans. Replays of the layers the
// traced requests reached follow.
func (r *serveRun) traced(d time.Duration, p *pins, spansPath string, stderr io.Writer) (*result, error) {
	n := sliceCount(d)
	if n < 2 {
		n = 2
	}
	var plain, all phaseStats
	var plainOps, tracedOps []float64
	for k := 0; k < n; k++ {
		if !abba(k) {
			ps := runPhase(r.lc, r.load, r.clients, d/time.Duration(n), nil)
			plainOps = append(plainOps, ps.opsPerSec())
			plain.add(ps)
			all.add(ps)
			continue
		}
		r.env.store.recording.Store(true)
		ps := runPhase(r.tlc, r.load, r.clients, d/time.Duration(n), r.env.log)
		r.env.store.recording.Store(false)
		tracedOps = append(tracedOps, ps.opsPerSec())
		all.add(ps)
	}
	if err := r.env.stopTraced(); err != nil {
		return nil, fmt.Errorf("stop traced listener: %w", err)
	}
	r.verify(&all, p)
	reportErrors(stderr, all.errors)

	m := newMetricSet(perLayer)
	setRuntimeMetrics(m, &plain.rt, plain.ok, plain.cpu)
	m.set("trace.overhead_pct", traceOverhead(plainOps, tracedOps))
	m.set("server.rejected", float64(all.rejected))
	graded, gradedReqs, sent, self := r.spanMetrics(m, stderr)
	reports, err := replayGrading(graded, serveGradeOptions(), true, m)
	if err != nil {
		return nil, err
	}
	if err := replayCodec(r.codecItems(sent, gradedReqs, reports), m); err != nil {
		return nil, err
	}
	if r.resub != nil {
		pct, err := r.hitOverhead(sent)
		if err != nil {
			return nil, err
		}
		m.set("obs.grade_overhead_pct", pct)
	}
	r.env.log.writeSummary(stderr, self)
	if spansPath != "" {
		if err := r.env.log.writeFile(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// spanMetrics joins the traced requests' spans into the http, server and
// store metrics. It returns the sample of requests whose store lookup
// missed (they reached the grading core) with their indexes, the sample of
// all traced requests, and per span kind the self times for the summary.
func (r *serveRun) spanMetrics(m metricSet, stderr io.Writer) (graded []replayItem, gradedReqs, sent []int64, self map[string][]float64) {
	l := r.env.log
	j := l.join(func(req int64) string { return store.SourceHash(r.load.gen(req).source) })
	reqs := make([]int64, 0, len(j.handler))
	for req := range j.handler {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a] < reqs[b] })

	self = map[string][]float64{}
	var handler, overhead, get, put []float64
	var gets, hits int
	missed := map[int64]bool{}
	for _, req := range reqs {
		h := j.handler[req]
		handler = append(handler, float64(h.end-h.start)/1e3)
		var kids []interval
		for _, si := range j.store[req] {
			s := l.spans[si]
			kids = append(kids, s.iv)
			switch s.kind {
			case spanStoreGet:
				gets++
				if s.label == "hit" {
					hits++
				} else {
					missed[req] = true
				}
				get = append(get, float64(s.iv.end-s.iv.start)/1e3)
			case spanStorePut:
				put = append(put, float64(s.iv.end-s.iv.start)/1e3)
			}
		}
		self[spanHandler] = append(self[spanHandler], float64(selfTime(h, kids))/1e3)
		if c, ok := j.client[req]; ok {
			o := float64(selfTime(c, []interval{h})) / 1e3
			overhead = append(overhead, o)
			self[spanClient] = append(self[spanClient], o)
		}
	}
	hp50, _ := percentile(handler, 50)
	hp99, _ := percentile(handler, 99)
	m.set("http.overhead_us_p50", median(overhead))
	m.set("server.handler_us_p50", hp50)
	m.set("server.handler_us_p99", hp99)
	m.set("store.get_us_p50", median(get))
	m.set("store.put_us_p50", median(put))
	m.set("store.gets", float64(gets))
	m.set("store.hit_ratio", ratio(float64(hits), float64(gets)))
	m.set("store.evictions", float64(r.env.store.evicted()))
	if j.orphans > 0 {
		fmt.Fprintf(stderr, "perfbench: %d store spans joined no request\n", j.orphans)
	}

	all := assignments.All()
	gradedPer := map[int]int{}
	sentPer := map[int]int{}
	for _, req := range reqs {
		sub := r.load.gen(req)
		if sentPer[sub.assignment] < replayPerAssignment {
			sentPer[sub.assignment]++
			sent = append(sent, req)
		}
		if missed[req] && gradedPer[sub.assignment] < replayPerAssignment {
			gradedPer[sub.assignment]++
			graded = append(graded, replayItem{a: all[sub.assignment], src: sub.source})
			gradedReqs = append(gradedReqs, req)
		}
	}
	return graded, gradedReqs, sent, self
}

// hitOverhead is obs.grade_overhead_pct on serve-resubmit, where nothing
// reaches the grading core: the sampled requests, all store hits, replayed
// through Server.Handler() with telemetry on and off.
func (r *serveRun) hitOverhead(sent []int64) (float64, error) {
	bodies := make([][]byte, len(sent))
	for k, req := range sent {
		bodies[k] = r.load.gen(req).body
	}
	return hitOverhead(r.env.srv.Handler(), bodies, func(k int, body []byte) error {
		sub := r.load.gen(sent[k])
		if !r.resub.check(sent[k], sub, body) {
			return errors.New("wrong output")
		}
		return nil
	})
}

// codecItems pairs each sampled request with what its handler encoded: the
// replayed report of a graded source, or the stored report bytes of a hit.
func (r *serveRun) codecItems(sent, gradedReqs []int64, reports []*core.Report) []codecItem {
	byReq := map[int64]*core.Report{}
	for k, req := range gradedReqs {
		byReq[req] = reports[k]
	}
	all := assignments.All()
	var items []codecItem
	for _, req := range sent {
		sub := r.load.gen(req)
		it := codecItem{body: sub.body, report: byReq[req], kbVersion: r.env.reg.Get(all[sub.assignment].ID).Version}
		switch {
		case it.report != nil:
		case r.resub != nil:
			it.stored = r.resub.report[sub.variant]
		default:
			continue
		}
		items = append(items, it)
	}
	return items
}

func runTableone(o options, p *pins, kids *children, stderr io.Writer) (*result, error) {
	var setup []float64
	var err error
	if !o.trace {
		if setup, err = measureSetup(kids, o.workload, o.seed, stderr); err != nil {
			return nil, err
		}
	}
	t := setupTable(o.seed)
	var log *spanLog
	if o.trace {
		log = newSpanLog()
	}
	// Whole sweeps until the deadline, at least one (two on a traced run,
	// one of each side).
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var sweeps [][]bench.Row
	var plain, traced []slice
	var plainRT runtimeDelta
	for k := 0; k == 0 || time.Now().Before(deadline) || (o.trace && k < 2); k++ {
		if o.trace && abba(k) {
			rows, s, _ := t.sweep(log)
			sweeps = append(sweeps, rows)
			traced = append(traced, s)
			continue
		}
		rows, s, rt := t.sweep(nil)
		sweeps = append(sweeps, rows)
		plain = append(plain, s)
		plainRT.add(rt)
	}
	wrong, first := checkRows(sweeps, o.seed, p)
	if first != "" {
		reportErrors(stderr, []string{first})
	}
	var attempted int64
	for _, rows := range sweeps {
		for _, row := range rows {
			attempted += int64(row.Evaluated)
		}
	}
	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: wrong}
	if !o.trace {
		p50, p99 := sweepLatency(plain, stderr)
		res.Metrics = endToEndMetrics(plain, p50, p99, setup, stderr)
		return res, nil
	}
	m := newMetricSet(perLayer)
	var ops int64
	var cpu time.Duration
	var plainOps, tracedOps []float64
	for _, s := range plain {
		ops += s.ops
		cpu += s.cpu
		plainOps = append(plainOps, s.opsPerSec())
	}
	for _, s := range traced {
		tracedOps = append(tracedOps, s.opsPerSec())
	}
	setRuntimeMetrics(m, &plainRT, ops, cpu)
	m.set("trace.overhead_pct", traceOverhead(plainOps, tracedOps))
	items := t.replaySample()
	if _, err := replayGrading(items, tableGradeOptions, false, m); err != nil {
		return nil, err
	}
	if err := replayBatch(items, tableGradeOptions, m); err != nil {
		return nil, err
	}
	if err := replayFunctest(items, m); err != nil {
		return nil, err
	}
	log.writeSummary(stderr, nil)
	if o.spans != "" {
		if err := log.writeFile(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res.Metrics = m
	return res, nil
}
