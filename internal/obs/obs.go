// Package obs is the stdlib-only observability subsystem of the grading
// pipeline: a process-wide metrics registry (counters, gauges, bounded
// histograms with quantile estimation), a structured span tracer with a
// ring-buffered recorder, and exposition as an expvar-style JSON snapshot or
// Prometheus text format.
//
// Design constraints, in order:
//
//  1. The hot matching path must not pay for observability it did not ask
//     for. Every hook is gated on an atomic enabled flag and is a
//     zero-allocation no-op when disabled (verified by
//     TestDisabledHooksAllocateNothing and BenchmarkDisabledHooks).
//  2. Hot loops never call obs per iteration: the parser and the interpreter
//     keep local counters and flush once per call. The EPDG builder, matcher,
//     constraint checker and analysis driver do not import obs at all: core
//     publishes each grade's core.Stats once, when the grade finishes.
//  3. No dependencies beyond the standard library, and no imports of other
//     semfeed packages, so any layer can import obs.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var (
	enabled atomic.Bool
	tracing atomic.Bool
)

// Enable turns on metric collection. Hooks are no-ops until this is called.
func Enable() { enabled.Store(true) }

// Disable turns metric collection back off. Values already accumulated are
// kept; use Reset to zero them.
func Disable() { enabled.Store(false) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// EnableTracing turns on span recording (independent of metrics).
func EnableTracing() { tracing.Store(true) }

// DisableTracing turns span recording back off.
func DisableTracing() { tracing.Store(false) }

// TracingEnabled reports whether span recording is on.
func TracingEnabled() bool { return tracing.Load() }

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing metric family. The zero value is
// unusable; create counters with NewCounter so they are registered for
// exposition. A counter created without label keys is a plain metric: its
// one series is updated lock-free.
type Counter struct{ family }

// Add increments the series for the given label values by n when collection
// is enabled. values must match the label keys in number and order (none
// for a plain counter). Add is small enough to inline, so a disabled hook
// costs one load at the call site.
func (c *Counter) Add(n int64, values ...string) {
	if enabled.Load() {
		c.add(n, values)
	}
}

func (c *Counter) add(n int64, values []string) {
	if c.plain == nil {
		c.labeledTotal.Add(n)
	}
	if s := c.child(values); s != nil {
		s.v.Add(n)
	}
}

// Inc increments the series for the given label values by one.
func (c *Counter) Inc(values ...string) { c.Add(1, values...) }

// Value returns the series' accumulated count (0 for an unseen label set).
func (c *Counter) Value(values ...string) int64 {
	if s := c.lookup(values); s != nil {
		return s.v.Load()
	}
	return 0
}

// Total returns the aggregate across every label set, including
// observations whose label set was dropped at the cap.
func (c *Counter) Total() int64 { return c.counterTotal() }

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a metric family that can go up and down (e.g. in-flight grades,
// or semfeed_build_info{revision,go_version} 1).
type Gauge struct{ family }

// Add moves the series for the given label values by n when collection is
// enabled.
func (g *Gauge) Add(n int64, values ...string) {
	if !enabled.Load() {
		return
	}
	if s := g.child(values); s != nil {
		s.v.Add(n)
	}
}

// Inc moves the series up by one.
func (g *Gauge) Inc(values ...string) { g.Add(1, values...) }

// Dec moves the series down by one.
func (g *Gauge) Dec(values ...string) { g.Add(-1, values...) }

// Set stores an absolute value for the given label values when collection is
// enabled.
func (g *Gauge) Set(n int64, values ...string) {
	if !enabled.Load() {
		return
	}
	if s := g.child(values); s != nil {
		s.v.Store(n)
	}
}

// Value returns the series' value (0 for an unseen label set).
func (g *Gauge) Value(values ...string) int64 {
	if s := g.lookup(values); s != nil {
		return s.v.Load()
	}
	return 0
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram is a bounded-bucket histogram family with quantile estimation
// and per-bucket exemplars. Buckets are fixed at construction; observations
// are lock-free atomic increments.
type Histogram struct{ family }

// DurationBuckets are the default upper bounds (seconds) for latency
// histograms: 1µs to 10s, roughly log-spaced.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value for the given label values.
func (h *Histogram) Observe(v float64, values ...string) { h.ObserveExemplar(v, "", values...) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration, values ...string) {
	h.ObserveExemplar(d.Seconds(), "", values...)
}

// ObserveExemplar records one value and, when traceID is non-empty, stamps
// it as the bucket's exemplar. The trace ID is the /v1/trace/{id} retrieval
// key, so the exposition links percentile buckets to concrete traces.
func (h *Histogram) ObserveExemplar(v float64, traceID string, values ...string) {
	if !enabled.Load() {
		return
	}
	s := h.child(values)
	if s == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	s.buckets[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, upd) {
			break
		}
	}
	if traceID != "" {
		s.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Count returns the series' observation count (0 for an unseen label set).
func (h *Histogram) Count(values ...string) int64 {
	if s := h.lookup(values); s != nil {
		return s.count.Load()
	}
	return 0
}

// Sum returns the sum of the series' observed values.
func (h *Histogram) Sum(values ...string) float64 {
	if s := h.lookup(values); s != nil {
		return math.Float64frombits(s.sumBits.Load())
	}
	return 0
}

// Quantile estimates the q-quantile (0 < q < 1) across every series, with
// linear interpolation inside the located bucket. Returns 0 with no
// observations; values in the overflow bucket report the largest bound.
func (h *Histogram) Quantile(q float64) float64 {
	_, _, buckets := h.aggregate()
	return bucketQuantile(h.bounds, buckets, q)
}

// ---------------------------------------------------------------------------
// Registry

// Registry holds a set of named metric families. Registration takes a lock;
// metric updates are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// Default is the process-wide registry the pipeline metrics live in.
var Default = &Registry{}

// NewCounter registers a counter family in the default registry.
func NewCounter(name, help string, keys ...string) *Counter {
	return Default.NewCounter(name, help, keys...)
}

// NewGauge registers a gauge family in the default registry.
func NewGauge(name, help string, keys ...string) *Gauge { return Default.NewGauge(name, help, keys...) }

// NewHistogram registers a histogram family in the default registry. A nil
// bounds slice applies DurationBuckets.
func NewHistogram(name, help string, bounds []float64, keys ...string) *Histogram {
	return Default.NewHistogram(name, help, bounds, keys...)
}

// NewCounter registers a counter family with the given label keys (none for
// a plain counter).
func (r *Registry) NewCounter(name, help string, keys ...string) *Counter {
	c := &Counter{}
	r.register(&c.family, "counter", name, help, nil, keys)
	return c
}

// NewGauge registers a gauge family with the given label keys.
func (r *Registry) NewGauge(name, help string, keys ...string) *Gauge {
	g := &Gauge{}
	r.register(&g.family, "gauge", name, help, nil, keys)
	return g
}

// NewHistogram registers a histogram family with the given label keys. A nil
// bounds slice applies DurationBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64, keys ...string) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	h := &Histogram{}
	r.register(&h.family, "histogram", name, help, bounds, keys)
	return h
}

func (r *Registry) register(f *family, kind, name, help string, bounds []float64, keys []string) {
	f.kind, f.name, f.help, f.bounds, f.keys = kind, name, help, bounds, keys
	f.limit = DefaultLabelCap
	f.children = map[string]*series{}
	if len(keys) == 0 {
		f.plain = f.newSeries(nil)
		f.children[""] = f.plain
	}
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

// families returns the registered families in exposition order: plain
// before labeled, each group ordered by kind (counter, gauge, histogram:
// alphabetical), then by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	fs := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if (a.plain == nil) != (b.plain == nil) {
			return a.plain != nil
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.name < b.name
	})
	return fs
}

// Len returns the number of registered metric families.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fams)
}

// MetricDesc describes one registered metric family for the generated
// metrics reference (cmd/metricsref) and the exposition lint.
type MetricDesc struct {
	Name   string   `json:"name"`
	Type   string   `json:"type"` // counter | gauge | histogram
	Labels []string `json:"labels,omitempty"`
	Help   string   `json:"help"`
}

// Describe lists every registered metric family, sorted by name. Histogram
// families imply the derived _bucket/_sum/_count series under the same name.
func (r *Registry) Describe() []MetricDesc {
	fs := r.families()
	out := make([]MetricDesc, 0, len(fs))
	for _, f := range fs {
		out = append(out, MetricDesc{Name: f.name, Type: f.kind, Labels: f.keys, Help: f.help})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Describe lists every metric family in the default registry.
func Describe() []MetricDesc { return Default.Describe() }

// Reset zeroes every metric in the registry (for tests and smoke runs):
// plain series go to zero, labeled families drop their series.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		f.reset()
	}
}

// Reset zeroes every metric in the default registry.
func Reset() { Default.Reset() }
