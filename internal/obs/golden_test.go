package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// goldenRegistry registers one plain and one labeled family of each kind and
// drives them through the exposition edge cases: plain counters registered
// out of name order, label values that need escaping, an exemplar, and
// observations in the +Inf bucket.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := &Registry{}
	cb := r.NewCounter("golden_b_total", "Plain counter b.")
	ca := r.NewCounter("golden_a_total", "Plain counter a.")
	g := r.NewGauge("golden_inflight", "Plain gauge.")
	h := r.NewHistogram("golden_seconds", "Plain histogram.", []float64{0.01, 0.1})
	lc := r.NewCounter("golden_lab_total", "Labeled counter.", "assignment", "status")
	lg := r.NewGauge("golden_lab_info", "Labeled gauge.", "revision")
	lh := r.NewHistogram("golden_lab_seconds", "Labeled histogram.", []float64{0.01, 0.1}, "phase")
	withCollection(t, func() {
		cb.Add(2)
		ca.Inc()
		g.Set(3)
		h.Observe(0.005)
		h.Observe(5)
		lc.Add(3, "a1", "ok")
		lc.Add(1, "quo\"te\\back\nline", "error")
		lg.Set(1, "abc123")
		lh.ObserveExemplar(0.05, "trace-1", "match")
		lh.Observe(7, "build")
	})
	return r
}

const goldenProm = `# HELP golden_a_total Plain counter a.
# TYPE golden_a_total counter
golden_a_total 1
# HELP golden_b_total Plain counter b.
# TYPE golden_b_total counter
golden_b_total 2
# HELP golden_inflight Plain gauge.
# TYPE golden_inflight gauge
golden_inflight 3
# HELP golden_seconds Plain histogram.
# TYPE golden_seconds histogram
golden_seconds_bucket{le="0.01"} 1
golden_seconds_bucket{le="0.1"} 1
golden_seconds_bucket{le="+Inf"} 2
golden_seconds_sum 5.005
golden_seconds_count 2
# HELP golden_lab_total Labeled counter.
# TYPE golden_lab_total counter
golden_lab_total{assignment="a1",status="ok"} 3
golden_lab_total{assignment="quo\"te\\back\nline",status="error"} 1
# HELP golden_lab_info Labeled gauge.
# TYPE golden_lab_info gauge
golden_lab_info{revision="abc123"} 1
# HELP golden_lab_seconds Labeled histogram.
# TYPE golden_lab_seconds histogram
golden_lab_seconds_bucket{phase="build",le="0.01"} 0
golden_lab_seconds_bucket{phase="build",le="0.1"} 0
golden_lab_seconds_bucket{phase="build",le="+Inf"} 1
golden_lab_seconds_sum{phase="build"} 7
golden_lab_seconds_count{phase="build"} 1
golden_lab_seconds_bucket{phase="match",le="0.01"} 0
golden_lab_seconds_bucket{phase="match",le="0.1"} 1
# exemplar golden_lab_seconds_bucket{phase="match",le="0.1"} trace_id="trace-1" value=0.05
golden_lab_seconds_bucket{phase="match",le="+Inf"} 1
golden_lab_seconds_sum{phase="match"} 0.05
golden_lab_seconds_count{phase="match"} 1
`

const goldenSnapshot = `{
  "counters": {
    "golden_a_total": 1,
    "golden_b_total": 2,
    "golden_lab_total": 4
  },
  "gauges": {
    "golden_inflight": 3
  },
  "histograms": {
    "golden_lab_seconds": {
      "count": 2,
      "sum": 7.05,
      "p50": 0.1,
      "p95": 0.1,
      "p99": 0.1,
      "bounds": [
        0.01,
        0.1
      ],
      "buckets": [
        0,
        1,
        1
      ]
    },
    "golden_seconds": {
      "count": 2,
      "sum": 5.005,
      "p50": 0.01,
      "p95": 0.1,
      "p99": 0.1,
      "bounds": [
        0.01,
        0.1
      ],
      "buckets": [
        1,
        0,
        1
      ]
    }
  }
}`

const goldenDescribe = `[
  {
    "name": "golden_a_total",
    "type": "counter",
    "help": "Plain counter a."
  },
  {
    "name": "golden_b_total",
    "type": "counter",
    "help": "Plain counter b."
  },
  {
    "name": "golden_inflight",
    "type": "gauge",
    "help": "Plain gauge."
  },
  {
    "name": "golden_lab_info",
    "type": "gauge",
    "labels": [
      "revision"
    ],
    "help": "Labeled gauge."
  },
  {
    "name": "golden_lab_seconds",
    "type": "histogram",
    "labels": [
      "phase"
    ],
    "help": "Labeled histogram."
  },
  {
    "name": "golden_lab_total",
    "type": "counter",
    "labels": [
      "assignment",
      "status"
    ],
    "help": "Labeled counter."
  },
  {
    "name": "golden_seconds",
    "type": "histogram",
    "help": "Plain histogram."
  }
]`

const goldenExemplars = `[
  {
    "metric": "golden_lab_seconds",
    "labels": "{phase=\"match\"}",
    "le": "0.1",
    "trace_id": "trace-1",
    "value": 0.05
  }
]`

const goldenPromReset = `# HELP golden_a_total Plain counter a.
# TYPE golden_a_total counter
golden_a_total 0
# HELP golden_b_total Plain counter b.
# TYPE golden_b_total counter
golden_b_total 0
# HELP golden_inflight Plain gauge.
# TYPE golden_inflight gauge
golden_inflight 0
# HELP golden_seconds Plain histogram.
# TYPE golden_seconds histogram
golden_seconds_bucket{le="0.01"} 0
golden_seconds_bucket{le="0.1"} 0
golden_seconds_bucket{le="+Inf"} 0
golden_seconds_sum 0
golden_seconds_count 0
# HELP golden_lab_total Labeled counter.
# TYPE golden_lab_total counter
# HELP golden_lab_info Labeled gauge.
# TYPE golden_lab_info gauge
# HELP golden_lab_seconds Labeled histogram.
# TYPE golden_lab_seconds histogram
`

const goldenSnapshotReset = `{
  "counters": {
    "golden_a_total": 0,
    "golden_b_total": 0,
    "golden_lab_total": 0
  },
  "gauges": {
    "golden_inflight": 0
  },
  "histograms": {
    "golden_lab_seconds": {
      "count": 0,
      "sum": 0,
      "p50": 0,
      "p95": 0,
      "p99": 0,
      "bounds": [
        0.01,
        0.1
      ],
      "buckets": [
        0,
        0,
        0
      ]
    },
    "golden_seconds": {
      "count": 0,
      "sum": 0,
      "p50": 0,
      "p95": 0,
      "p99": 0,
      "bounds": [
        0.01,
        0.1
      ],
      "buckets": [
        0,
        0,
        0
      ]
    }
  }
}`

// TestGoldenExposition pins every exposition surface of the registry
// byte for byte: Prometheus text, the JSON snapshot, Describe, Exemplars,
// and the same after Reset.
func TestGoldenExposition(t *testing.T) {
	r := goldenRegistry(t)
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s drifted from the golden output:\n--- got ---\n%s\n--- want ---\n%s", what, got, want)
		}
	}
	prom := func() string {
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	js := func(v any) string {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	check("WriteProm", prom(), goldenProm)
	check("Snapshot", js(r.Snapshot()), goldenSnapshot)
	check("Describe", js(r.Describe()), goldenDescribe)
	check("Exemplars", js(r.Exemplars()), goldenExemplars)
	r.Reset()
	check("WriteProm after Reset", prom(), goldenPromReset)
	check("Snapshot after Reset", js(r.Snapshot()), goldenSnapshotReset)
}
