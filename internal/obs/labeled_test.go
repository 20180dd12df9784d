package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLabeledCounterChildren(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("lab_total", "help", "assignment", "status")
	withCollection(t, func() {
		c.Add(2, "a1", "ok")
		c.Add(1, "a1", "error")
		c.Inc("a1", "ok")
	})
	if got := c.Value("a1", "ok"); got != 3 {
		t.Errorf(`child {a1,ok} = %d, want 3`, got)
	}
	if got := c.Value("a1", "error"); got != 1 {
		t.Errorf(`child {a1,error} = %d, want 1`, got)
	}
	if got := c.Value("a2", "ok"); got != 0 {
		t.Errorf("unseen child = %d, want 0", got)
	}
	if got := c.Total(); got != 4 {
		t.Errorf("total = %d, want 4", got)
	}
}

func TestLabeledCounterDisabledGate(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("lab_gate_total", "help", "k")
	Disable()
	c.Add(5, "v")
	if c.Total() != 0 || c.Value("v") != 0 {
		t.Errorf("disabled labeled counter moved: total=%d child=%d", c.Total(), c.Value("v"))
	}
}

func TestLabeledCardinalityCap(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("lab_cap_total", "help", "k")
	c.SetLimit(3)
	withCollection(t, func() {
		before := LabelsDroppedTotal.Value()
		for i := 0; i < 5; i++ {
			c.Add(1, fmt.Sprintf("v%d", i))
		}
		// Existing children keep accepting after the cap is hit.
		c.Add(1, "v0")
		if got := LabelsDroppedTotal.Value() - before; got != 2 {
			t.Errorf("labels dropped = %d, want 2 (v3, v4)", got)
		}
		if got := c.Value("v0"); got != 2 {
			t.Errorf("capped vec dropped an existing child's observation: %d", got)
		}
		if got := c.Value("v4"); got != 0 {
			t.Errorf("over-cap child recorded: %d", got)
		}
		// The aggregate total stays truthful: every Add counted.
		if got := c.Total(); got != 6 {
			t.Errorf("total = %d, want 6 including capped observations", got)
		}
	})
}

func TestLabeledArityMismatchDropped(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("lab_arity_total", "help", "a", "b")
	withCollection(t, func() {
		before := LabelsDroppedTotal.Value()
		c.Add(1)                // zero values
		c.Add(1, "x")           // too few
		c.Add(1, "x", "y", "z") // too many
		if got := LabelsDroppedTotal.Value() - before; got != 3 {
			t.Errorf("arity mismatches dropped = %d, want 3", got)
		}
	})
}

func TestLabeledGauge(t *testing.T) {
	r := &Registry{}
	g := r.NewGauge("lab_info", "help", "revision")
	withCollection(t, func() {
		g.Set(1, "abc123")
		g.Add(2, "abc123")
	})
	if got := g.Value("abc123"); got != 3 {
		t.Errorf("gauge child = %d, want 3", got)
	}
}

func TestLabeledHistogramObserveAndAggregate(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("lab_seconds", "help", []float64{0.001, 0.01, 0.1}, "phase")
	withCollection(t, func() {
		for i := 0; i < 90; i++ {
			h.Observe(0.0005, "match")
		}
		for i := 0; i < 10; i++ {
			h.ObserveDuration(50*time.Millisecond, "build")
		}
	})
	if got := h.Count("match"); got != 90 {
		t.Errorf("match count = %d, want 90", got)
	}
	if got := h.Count("build"); got != 10 {
		t.Errorf("build count = %d, want 10", got)
	}
	count, sum, _ := h.aggregate()
	if count != 100 {
		t.Errorf("aggregate count = %d, want 100", count)
	}
	if sum < 0.5 || sum > 0.6 {
		t.Errorf("aggregate sum = %g, want ~0.545", sum)
	}
	if p99 := h.Quantile(0.99); p99 < 0.01 || p99 > 0.1 {
		t.Errorf("aggregate p99 = %g, want inside (0.01, 0.1]", p99)
	}
}

func TestLabeledHistogramExemplar(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("lab_ex_seconds", "help", []float64{0.001, 0.1}, "status")
	withCollection(t, func() {
		h.ObserveExemplar(0.05, "req-early", "2xx")
		h.ObserveExemplar(0.06, "req-late", "2xx") // same bucket: replaces
		h.ObserveExemplar(5.0, "req-slow", "2xx")  // +Inf bucket
		h.Observe(0.07, "2xx")                     // no trace ID: keeps req-late
	})
	refs := r.Exemplars()
	if len(refs) != 2 {
		t.Fatalf("exemplar refs = %d, want 2 (one per touched bucket): %+v", len(refs), refs)
	}
	byLE := map[string]ExemplarRef{}
	for _, ref := range refs {
		byLE[ref.LE] = ref
	}
	if ref := byLE["0.1"]; ref.TraceID != "req-late" || ref.Value != 0.06 {
		t.Errorf("le=0.1 exemplar = %+v, want the most recent trace req-late", ref)
	}
	if ref := byLE["+Inf"]; ref.TraceID != "req-slow" {
		t.Errorf("+Inf exemplar = %+v, want req-slow", ref)
	}
	if ref := byLE["0.1"]; ref.Metric != "lab_ex_seconds" || !strings.Contains(ref.Labels, `status="2xx"`) {
		t.Errorf("exemplar ref identity wrong: %+v", ref)
	}
}

func TestLabeledExposition(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("expo_total", "counter help", "assignment", "status")
	h := r.NewHistogram("expo_seconds", "hist help", []float64{0.01}, "phase")
	withCollection(t, func() {
		c.Add(3, "a1", "ok")
		c.Add(1, `quo"te`, "error")
		h.ObserveExemplar(0.005, "trace-1", "match")
	})
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE expo_total counter",
		`expo_total{assignment="a1",status="ok"} 3`,
		`expo_total{assignment="quo\"te",status="error"} 1`,
		"# TYPE expo_seconds histogram",
		`expo_seconds_bucket{phase="match",le="0.01"} 1`,
		`expo_seconds_bucket{phase="match",le="+Inf"} 1`,
		`expo_seconds_count{phase="match"} 1`,
		`# exemplar expo_seconds_bucket{phase="match",le="0.01"} trace_id="trace-1" value=0.005`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSnapshotAggregates(t *testing.T) {
	// The bare-name back-compat contract: Snapshot reports a labeled counter's
	// Total() under its family name, and a labeled histogram's merged
	// distribution, so pre-dimensional dashboards keep working.
	r := &Registry{}
	c := r.NewCounter("snap_lab_total", "help", "status")
	h := r.NewHistogram("snap_lab_seconds", "help", nil, "status")
	withCollection(t, func() {
		c.Add(2, "ok")
		c.Add(1, "error")
		h.Observe(0.002, "ok")
	})
	snap := r.Snapshot()
	if got := snap.Counters["snap_lab_total"]; got != 3 {
		t.Errorf(`snapshot["snap_lab_total"] = %d, want the 3 aggregate`, got)
	}
	hs, ok := snap.Histograms["snap_lab_seconds"]
	if !ok || hs.Count != 1 {
		t.Errorf("snapshot histogram = %+v, want count 1", hs)
	}
}

func TestLabeledReset(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("reset_lab_total", "help", "k")
	h := r.NewHistogram("reset_lab_seconds", "help", nil, "k")
	withCollection(t, func() {
		c.Add(4, "v")
		h.Observe(0.001, "v")
	})
	r.Reset()
	if c.Total() != 0 || c.Value("v") != 0 {
		t.Errorf("reset left counter state: total=%d child=%d", c.Total(), c.Value("v"))
	}
	if h.Count("v") != 0 {
		t.Errorf("reset left histogram child: %d", h.Count("v"))
	}
}

func TestDescribeIncludesLabeled(t *testing.T) {
	r := &Registry{}
	r.NewCounter("desc_plain_total", "plain")
	r.NewCounter("desc_lab_total", "labeled", "assignment", "phase")
	r.NewHistogram("desc_lab_seconds", "labeled hist", nil, "status")
	descs := r.Describe()
	byName := map[string]MetricDesc{}
	for _, d := range descs {
		byName[d.Name] = d
	}
	if d, ok := byName["desc_lab_total"]; !ok || d.Type != "counter" ||
		len(d.Labels) != 2 || d.Labels[0] != "assignment" || d.Labels[1] != "phase" {
		t.Errorf("labeled counter desc = %+v", d)
	}
	if d, ok := byName["desc_lab_seconds"]; !ok || d.Type != "histogram" || len(d.Labels) != 1 {
		t.Errorf("labeled histogram desc = %+v", d)
	}
	if d, ok := byName["desc_plain_total"]; !ok || d.Type != "counter" || len(d.Labels) != 0 {
		t.Errorf("plain counter desc = %+v", d)
	}
}

// TestDisabledLabeledHooksAllocateNothing extends the zero-allocation
// guarantee to the dimensional layer: grading hot paths call labeled Add with
// variadic label values, which must not allocate while collection is off.
func TestDisabledLabeledHooksAllocateNothing(t *testing.T) {
	Disable()
	DisableTracing()
	r := &Registry{}
	c := r.NewCounter("noop_lab_total", "help", "a", "b")
	g := r.NewGauge("noop_lab", "help", "a")
	h := r.NewHistogram("noop_lab_seconds", "help", nil, "a")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1, "x", "y")
		g.Set(1, "x")
		h.Observe(0.001, "x")
		h.ObserveExemplar(0.001, "rid", "x")
	}); n != 0 {
		t.Fatalf("disabled labeled hooks allocate %v bytes/op, want 0", n)
	}
}

func TestLabeledConcurrency(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("conc_lab_total", "help", "k")
	h := r.NewHistogram("conc_lab_seconds", "help", nil, "k")
	withCollection(t, func() {
		done := make(chan struct{})
		for p := 0; p < 4; p++ {
			go func(p int) {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 500; i++ {
					v := fmt.Sprintf("v%d", i%8)
					c.Add(1, v)
					h.ObserveExemplar(0.001, "rid", v)
				}
			}(p)
		}
		for p := 0; p < 4; p++ {
			<-done
		}
	})
	if got := c.Total(); got != 2000 {
		t.Errorf("concurrent total = %d, want 2000", got)
	}
	count, _, _ := h.aggregate()
	if count != 2000 {
		t.Errorf("concurrent histogram count = %d, want 2000", count)
	}
}
