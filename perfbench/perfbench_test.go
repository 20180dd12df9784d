package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"semfeed/internal/bench"
	"semfeed/internal/obs"
	"semfeed/internal/store"
)

// TestMain lets this test binary serve as a set-up probe, which is how the
// full-run tests exercise measureSetup.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) == "1" {
		os.Exit(runProbe(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name       string
		xs         []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{"empty", nil, 50, 0, 0},
		{"single", []float64{7}, 99, 7, 0},
		{"median of 100", seq(100), 50, 50, 50},
		{"p99 of 100 has one beyond", seq(100), 99, 99, 1},
		{"p99 of 1000 has ten beyond", seq(1000), 99, 990, 10},
		{"p99 of 5000", seq(5000), 99, 4950, 50},
		{"max", seq(10), 100, 10, 0},
		{"even count takes the lower middle", []float64{4, 1, 3, 2}, 50, 2, 2},
	} {
		got, beyond := percentile(tc.xs, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("%s: percentile(p%v) = %v with %d beyond, want %v with %d", tc.name, tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 30}, {20, 50}, {60, 70}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"identical", []interval{{10, 40}, {10, 40}}, 70},
		{"clipped to the parent", []interval{{-10, 5}, {95, 130}}, 90},
		{"outside the parent", []interval{{-20, -10}, {100, 120}}, 100},
		{"covering the parent", []interval{{-5, 50}, {40, 105}}, 0},
		{"unsorted", []interval{{60, 70}, {10, 30}, {20, 50}}, 50},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := newColdInputs(7), newColdInputs(7), newColdInputs(8)
	differ := 0
	for i := int64(0); i < 2000; i++ {
		ra, rb, ro := a.request(i), b.request(i), other.request(i)
		if ra.source != rb.source || !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("serve-cold request %d differs between two runs at seed 7", i)
		}
		if a.variantKey(ra.assignment, ra.variant) != other.variantKey(ro.assignment, ro.variant) {
			differ++
		}
	}
	if differ < 1000 {
		t.Errorf("seeds 7 and 8 drew the same base variant for %d of 2000 serve-cold requests", 2000-differ)
	}

	pa, pb, po := newResubmitPool(7), newResubmitPool(7), newResubmitPool(8)
	differ = 0
	for i := int64(0); i < 2000; i++ {
		ra, rb, ro := pa.request(i), pb.request(i), po.request(i)
		if ra.source != rb.source || !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("serve-resubmit request %d differs between two runs at seed 7", i)
		}
		if ra.source != ro.source {
			differ++
		}
	}
	if differ < 1000 {
		t.Errorf("seeds 7 and 8 sent the same source for %d of 2000 serve-resubmit requests", 2000-differ)
	}

	ta, to := (&tableRun{seed: 7}).replaySample(), (&tableRun{seed: 8}).replaySample()
	same := 0
	for i := range ta {
		if i < len(to) && ta[i].src == to[i].src {
			same++
		}
	}
	if same == len(ta) {
		t.Error("tableone samples the same sources at seeds 7 and 8")
	}
}

func TestColdNeverRepeatsASource(t *testing.T) {
	in := newColdInputs(defaultSeed)
	seen := map[string]int64{}
	perAssignment := make([]int, len(in.all))
	const n = 50000
	for i := int64(0); i < n; i++ {
		r := in.request(i)
		h := store.SourceHash(r.source)
		if j, dup := seen[h]; dup {
			t.Fatalf("requests %d and %d send the same source", j, i)
		}
		seen[h] = i
		perAssignment[r.assignment]++
		var req struct{ Assignment, Source string }
		if i < 100 {
			if err := json.Unmarshal(r.body, &req); err != nil || req.Source != r.source || req.Assignment != in.all[r.assignment].ID {
				t.Fatalf("request %d: body does not carry its source (%v)", i, err)
			}
		}
	}
	for ai, c := range perAssignment {
		if c < n/len(in.all) || c > n/len(in.all)+1 {
			t.Errorf("%s got %d of %d requests; want an even share", in.all[ai].ID, c, n)
		}
	}
}

func TestResubmitPoolFitsInStore(t *testing.T) {
	pool := newResubmitPool(defaultSeed)
	warm := warmupInputs()
	if got := len(pool.entries) + len(warm); got > storeEntries {
		t.Fatalf("pool (%d) and warm-up (%d) need %d store entries; the store holds %d", len(pool.entries), len(warm), got, storeEntries)
	}
	distinct := map[string]bool{}
	for _, s := range append(pool.entries, warm...) {
		distinct[s.source] = true
	}
	if len(distinct) != len(pool.entries)+len(warm) {
		t.Errorf("pool and warm-up sources are not distinct: %d of %d", len(distinct), len(pool.entries)+len(warm))
	}
}

// TestClientConnectionCap drives four times as many callers as the client
// allows connections and checks it never dials more than nproc.
func TestClientConnectionCap(t *testing.T) {
	r, err := setupServe("serve-cold", defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.close(); err != nil {
			t.Error(err)
		}
	}()
	n := runtime.NumCPU()
	lc := newLoadClient(r.env.plainURL, n)
	defer lc.close()
	ps := runPhase(lc, r.load, 4*n, 500*time.Millisecond, nil)
	if ps.failed != 0 || ps.ok == 0 {
		t.Fatalf("%d of %d requests failed: %v", ps.failed, ps.attempted, ps.errors)
	}
	if d := lc.dials.Load(); d > int64(n) {
		t.Errorf("client opened %d connections; want at most %d", d, n)
	}
	if d := r.lc.dials.Load(); d > int64(n) {
		t.Errorf("set-up client opened %d connections; want at most %d", d, n)
	}
}

// TestWorkloadsRunAndLeaveNothing runs every workload at a tiny size,
// untraced and traced, and checks each reports every metric, passes its
// output checks, and returns with no listener, child process or extra
// goroutine left behind.
func TestWorkloadsRunAndLeaveNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	baseGoroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seconds", "0.4", "--trace", trace}
			spansPath := filepath.Join(dir, w+".jsonl")
			if trace == "1" {
				args = append(args, "--spans", spansPath)
			}
			code := run(args, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, e := range want {
				got, ok := res.Metrics[e.name]
				if !ok || got.Unit != e.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, e.name, got, e.unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, e.name, got.Value)
				}
			}
			if trace == "1" {
				checkLayerBypass(t, w, res.Metrics)
				checkSpanFile(t, w, spansPath)
			}
			if n := listeningSockets(t); n != 0 {
				t.Errorf("%s trace %s: %d listening sockets left open", w, trace, n)
			}
			if kids := childProcesses(t); len(kids) != 0 {
				t.Errorf("%s trace %s: child processes left running: %v", w, trace, kids)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+2 {
		t.Errorf("%d goroutines left running, %d before", g, baseGoroutines)
	}
}

// checkLayerBypass pins which layers each workload reaches: the store hits
// on serve-resubmit and never on serve-cold, the grading core runs on
// serve-cold and tableone only, and the interpreter on tableone only.
func checkLayerBypass(t *testing.T, w string, m metricSet) {
	t.Helper()
	expect := func(name string, positive bool) {
		if v := m[name].Value; (v > 0) != positive {
			t.Errorf("%s: %s = %v, want positive: %v", w, name, v, positive)
		}
	}
	serve := w != "tableone"
	expect("store.gets", serve)
	expect("server.handler_us_p50", serve)
	expect("http.overhead_us_p50", serve)
	expect("store.hit_ratio", w == "serve-resubmit")
	expect("core.grade_us_p50", w != "serve-resubmit")
	expect("match.steps_per_sub", w != "serve-resubmit")
	expect("match.calls_per_sub", w != "serve-resubmit")
	expect("functest.run_us_p50", w == "tableone")
	expect("interp.steps_per_sub", w == "tableone")
	expect("core.batch_parallelism", w == "tableone")
	if w == "serve-resubmit" && m["store.hit_ratio"].Value != 1 {
		t.Errorf("serve-resubmit: store.hit_ratio = %v, want 1", m["store.hit_ratio"].Value)
	}
}

// checkSpanFile checks a traced run wrote its spans: one JSON object per
// line, and on the serve workloads store spans joined to their request.
func checkSpanFile(t *testing.T, w, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	kinds := map[string]int{}
	joinedStore := 0
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec spanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Kind == "" || rec.EndNS < rec.StartNS {
			t.Fatalf("%s: bad span line %q (%v)", w, line, err)
		}
		kinds[rec.Kind]++
		if rec.Kind == spanStoreGet && rec.RequestID != "" {
			joinedStore++
		}
	}
	want := []string{spanClient, spanHandler, spanStoreGet}
	if w == "tableone" {
		want = []string{spanSweep, spanRow}
	}
	for _, k := range want {
		if kinds[k] == 0 {
			t.Errorf("%s: no %s spans written (%v)", w, k, kinds)
		}
	}
	if w != "tableone" && joinedStore != kinds[spanStoreGet] {
		t.Errorf("%s: %d of %d store.get spans joined a request", w, joinedStore, kinds[spanStoreGet])
	}
}

// listeningSockets counts TCP sockets in LISTEN state that this process
// holds open.
func listeningSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	inodes := map[string]bool{}
	for _, fd := range fds {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	n := 0
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) > 9 && f[3] == "0A" && inodes[f[9]] { // 0A: TCP_LISTEN
				n++
			}
		}
	}
	return n
}

// childProcesses lists the PIDs of this process's live children.
func childProcesses(t *testing.T) []int {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []int
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join("/proc/self/task", task.Name(), "children"))
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(f); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// TestWrongOutputFailsTheRun breaks every pinned serve-cold outcome and
// checks the run books every reply as failed, reports correct:false, and
// still shuts its listener.
// TestTelemetryOverheadPasses checks the on/off replay: passes alternate
// on, off, off, on, metrics and tracing switch together, the telemetry ends
// as asked, and a failing pass fails the replay.
func TestTelemetryOverheadPasses(t *testing.T) {
	defer setTelemetry(obs.Enabled())
	for _, restore := range []bool{true, false} {
		var seen []bool
		if _, err := telemetryOverhead(restore, func() error {
			if obs.Enabled() != obs.TracingEnabled() {
				t.Errorf("metrics %v, tracing %v: want them switched together", obs.Enabled(), obs.TracingEnabled())
			}
			seen = append(seen, obs.Enabled())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := []bool{true, false, false, true, true, false, false, true}
		if len(seen) != len(want) {
			t.Fatalf("%d passes, want %d", len(seen), len(want))
		}
		for k := range want {
			if seen[k] != want[k] {
				t.Fatalf("pass order %v, want %v", seen, want)
			}
		}
		if obs.Enabled() != restore || obs.TracingEnabled() != restore {
			t.Errorf("telemetry left at %v/%v, want %v", obs.Enabled(), obs.TracingEnabled(), restore)
		}
	}
	calls := 0
	if _, err := telemetryOverhead(true, func() error {
		calls++
		return os.ErrInvalid
	}); err == nil || calls != 1 {
		t.Errorf("failing pass: err %v after %d passes, want an error after 1", err, calls)
	}
}

func TestWrongOutputFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serve-cold")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	broken := *p
	broken.Cold = map[string]string{}
	for k := range p.Cold {
		broken.Cold[k] = "0 wrong"
	}
	var stderr bytes.Buffer
	res, err := runServe(options{workload: "serve-cold", seed: defaultSeed, seconds: 0.5}, &broken, newChildren(), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d with every pin broken; want every request failed", res.Correct, res.Attempted, res.Failed)
	}
	if !strings.Contains(stderr.String(), "pin mismatch") {
		t.Errorf("stderr does not name the mismatch:\n%s", stderr.String())
	}
	if n := listeningSockets(t); n != 0 {
		t.Errorf("%d listening sockets left open after a failed check", n)
	}
}

func TestCheckRows(t *testing.T) {
	p := &pins{Table: map[string]tablePin{
		"a": {Discrepancies: 3},
		"b": {Discrepancies: 1},
	}}
	rows := func(da, db, evaluated int) []bench.Row {
		return []bench.Row{
			{Assignment: "a", D: da, Evaluated: evaluated},
			{Assignment: "b", D: db, Evaluated: 10, Exhaustive: true},
		}
	}
	for _, tc := range []struct {
		name      string
		seed      int64
		sweeps    [][]bench.Row
		wantWrong int64
	}{
		{"pinned at the default seed", defaultSeed, [][]bench.Row{rows(3, 1, 20)}, 0},
		{"discrepancy off the pin", defaultSeed, [][]bench.Row{rows(4, 1, 20)}, 20},
		{"sampled row free at another seed", 9, [][]bench.Row{rows(7, 1, 20)}, 0},
		{"exhaustive row pinned at any seed", 9, [][]bench.Row{rows(7, 2, 20)}, 10},
		{"sweeps must agree", 9, [][]bench.Row{rows(7, 1, 20), rows(8, 1, 20)}, 20},
		{"parse failure", defaultSeed, [][]bench.Row{{{Assignment: "a", D: 3, ParseFail: 1, Evaluated: 20}}}, 20},
		{"unpinned assignment", defaultSeed, [][]bench.Row{{{Assignment: "c", Evaluated: 5}}}, 5},
	} {
		if got, _ := checkRows(tc.sweeps, tc.seed, p); got != tc.wantWrong {
			t.Errorf("%s: %d wrong, want %d", tc.name, got, tc.wantWrong)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// code reports in step with the benchmark definition at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []struct{ name, unit string }
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.section, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", c.section, i, c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, w.Name, workloads[i])
		}
	}
}
