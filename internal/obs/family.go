package obs

// The metric family: the one core behind Counter, Gauge and Histogram. A
// family is a set of series keyed by a small, fixed label set (e.g.
// semfeed_phase_ns{assignment,phase}); a plain metric is a family with zero
// label keys and exactly one series. Prometheus-style dimensional metrics
// are an easy way to blow up a time-series database, so cardinality is
// bounded by construction:
//
//   - the label KEYS are fixed when the family is created — callers cannot
//     invent dimensions at observation time;
//   - the number of live label-value SETS per family is capped
//     (DefaultLabelCap, adjustable per family with SetLimit). Once the cap is
//     hit, observations for new label sets are dropped and counted in
//     semfeed_labels_dropped_total, never silently;
//   - label values are expected to be low-cardinality identifiers
//     (assignment IDs, phase names, status classes), not request IDs.
//
// Request IDs still get into the exposition — as exemplars. Every histogram
// bucket remembers the most recent trace ID that landed in it
// (ObserveExemplar), so a p99 spike on a dashboard links directly to one
// retrievable trace at /v1/trace/{id}.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLabelCap bounds the live label-value sets of one labeled family.
// 13 built-in assignments × 7 phases × a few status classes stays far below
// it; a runaway label (a bug interpolating user input into a label value)
// hits the cap instead of the time-series database.
const DefaultLabelCap = 256

// LabelsDroppedTotal counts observations dropped because their label set
// would have exceeded a family's cardinality cap (or had the wrong arity).
var LabelsDroppedTotal = NewCounter("semfeed_labels_dropped_total",
	"Observations dropped by the label-cardinality cap of a dimensional metric.")

// family is the child-management, exposition and reset core shared by every
// metric kind.
type family struct {
	kind       string // counter | gauge | histogram
	name, help string
	keys       []string
	bounds     []float64 // histograms: ascending upper bounds; implicit +Inf bucket after
	plain      *series   // the only series of a zero-key family, reached without locking
	// labeledTotal aggregates a labeled counter across every label set,
	// including observations dropped at the cap, so Snapshot can report a
	// truthful total under the bare family name.
	labeledTotal atomic.Int64

	mu       sync.RWMutex
	limit    int
	children map[string]*series // joined label values -> series
}

// series is one (values...) member of a family. Only the fields the owning
// kind uses are populated.
type series struct {
	values []string
	v      atomic.Int64 // counter / gauge value

	// histogram state (nil for counters and gauges)
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64              // float64 bits of the running sum
	exemplars []atomic.Pointer[Exemplar] // one slot per bucket, incl. +Inf
}

// Exemplar links one histogram bucket to a concrete trace: the most recent
// observation that landed in the bucket, with the trace ID that can retrieve
// its span breakdown.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

func (f *family) newSeries(values []string) *series {
	s := &series{values: append([]string(nil), values...)}
	if f.kind == "histogram" {
		s.buckets = make([]atomic.Int64, len(f.bounds)+1)
		s.exemplars = make([]atomic.Pointer[Exemplar], len(f.bounds)+1)
	}
	return s
}

// joinValues builds the child map key. 0x1f (unit separator) cannot appear
// in reasonable label values; even if it did, the worst case is two label
// sets sharing a child, never a panic.
func joinValues(values []string) string { return strings.Join(values, "\x1f") }

// child returns the series an observation for values updates: the plain
// series without locking (child inlines), else the labeled child. A nil
// return means the observation must be dropped (arity mismatch or cap hit);
// it has already been counted in LabelsDroppedTotal.
func (f *family) child(values []string) *series {
	if f.plain != nil && len(values) == 0 {
		return f.plain
	}
	return f.labeledChild(values)
}

// labeledChild returns the child for values, creating it under the cap.
func (f *family) labeledChild(values []string) *series {
	if len(values) != len(f.keys) {
		LabelsDroppedTotal.Add(1)
		return nil
	}
	if s := f.lookup(values); s != nil {
		return s
	}
	key := joinValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.children[key]; s != nil {
		return s
	}
	if len(f.children) >= f.limit {
		LabelsDroppedTotal.Add(1)
		return nil
	}
	s := f.newSeries(values)
	f.children[key] = s
	return s
}

// lookup returns the existing series for values, or nil.
func (f *family) lookup(values []string) *series {
	if f.plain != nil && len(values) == 0 {
		return f.plain
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.children[joinValues(values)]
}

// Name returns the registered family name.
func (f *family) Name() string { return f.name }

// SetLimit adjusts the family's label-cardinality cap (series already
// created survive).
func (f *family) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	f.mu.Lock()
	f.limit = n
	f.mu.Unlock()
}

// counterTotal is a counter family's aggregate across every label set.
func (f *family) counterTotal() int64 {
	if f.plain != nil {
		return f.plain.v.Load()
	}
	return f.labeledTotal.Load()
}

// snapshotSeries returns the series sorted by label values for stable
// exposition.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.children))
	for _, s := range f.children {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return joinValues(out[i].values) < joinValues(out[j].values)
	})
	return out
}

// reset zeroes the plain series, or drops every labeled child (Registry.Reset:
// tests and smoke runs).
func (f *family) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.labeledTotal.Store(0)
	if s := f.plain; s != nil {
		s.v.Store(0)
		s.count.Store(0)
		s.sumBits.Store(0)
		for i := range s.buckets {
			s.buckets[i].Store(0)
			s.exemplars[i].Store(nil)
		}
		return
	}
	f.children = map[string]*series{}
}

// aggregate folds every series into one (count, sum, merged buckets) for the
// bare-name snapshot entry and Quantile.
func (f *family) aggregate() (count int64, sum float64, buckets []int64) {
	buckets = make([]int64, len(f.bounds)+1)
	for _, s := range f.snapshotSeries() {
		count += s.count.Load()
		sum += math.Float64frombits(s.sumBits.Load())
		for i := range s.buckets {
			buckets[i] += s.buckets[i].Load()
		}
	}
	return count, sum, buckets
}

// labelPairs renders {k1="v1",k2="v2"} for exposition, with extra appended
// verbatim (the le="..." bound of histogram buckets); "" when there is
// nothing to render.
func (f *family) labelPairs(s *series, extra string) string {
	pairs := make([]string, 0, len(f.keys)+1)
	for i, k := range f.keys {
		pairs = append(pairs, k+`="`+labelEscaper.Replace(s.values[i])+`"`)
	}
	if extra != "" {
		pairs = append(pairs, extra)
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// labelEscaper applies the Prometheus text-format escapes to label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// leBound renders bucket i's upper bound ("+Inf" for the overflow bucket).
func leBound(bounds []float64, i int) string {
	if i >= len(bounds) {
		return "+Inf"
	}
	return strconv.FormatFloat(bounds[i], 'g', -1, 64)
}

// writeProm emits the family in text format: counter and gauge series as
// single samples, histogram series as cumulative le-buckets plus _sum and
// _count. Exemplars ride along as comments (the 0.0.4 text format predates
// OpenMetrics exemplar syntax; comments are ignored by every parser while
// staying greppable):
//
//	# exemplar semfeed_server_request_seconds_bucket{assignment="a1",status="2xx",le="0.005"} trace_id="d24865dd6d3027b7" value=0.0041
func (f *family) writeProm(w io.Writer) error {
	name := f.name
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind); err != nil {
		return err
	}
	for _, s := range f.snapshotSeries() {
		if f.kind != "histogram" {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, f.labelPairs(s, ""), s.v.Load()); err != nil {
				return err
			}
			continue
		}
		var cum int64
		for i := range s.buckets {
			cum += s.buckets[i].Load()
			le := `le="` + leBound(f.bounds, i) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, f.labelPairs(s, le), cum); err != nil {
				return err
			}
			if ex := s.exemplars[i].Load(); ex != nil {
				if _, err := fmt.Fprintf(w, "# exemplar %s_bucket%s trace_id=%q value=%g\n",
					name, f.labelPairs(s, le), ex.TraceID, ex.Value); err != nil {
					return err
				}
			}
		}
		plain := f.labelPairs(s, "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
			name, plain, math.Float64frombits(s.sumBits.Load()), name, plain, s.count.Load()); err != nil {
			return err
		}
	}
	return nil
}
