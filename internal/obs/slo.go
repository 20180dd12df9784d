package obs

import (
	"sort"
	"sync"
	"time"
)

// Rolling SLO windows: sliding-window latency percentiles, error rate and
// shed rate over the last 1m/5m, the numbers an operator actually alerts on
// (lifetime histograms like semfeed_server_request_seconds never forget, so
// they cannot show "the service is slow *right now*").
//
// The implementation is a ring of per-second buckets, each holding request/
// error/shed counts plus a DurationBuckets-shaped latency histogram. Observe
// touches exactly one bucket under a mutex; Stats folds the last N seconds.
// Like every obs hook, Observe is gated on the metrics-enabled flag.

// sloRingSeconds is the ring capacity: the longest supported window (5m)
// plus one bucket of slack for the partially-filled current second.
const sloRingSeconds = 5*60 + 1

// Outcome classifies one request for SLO accounting.
type Outcome uint8

// Request outcomes. Shed requests (429) are tracked separately from errors:
// shedding is the admission queue doing its job, errors are the service
// failing, and an alert threshold should tell them apart.
const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeShed
)

type sloBucket struct {
	sec      int64 // unix second this bucket currently represents
	requests int64
	errors   int64
	sheds    int64
	lat      []int64 // len(DurationBuckets)+1, same shape as Histogram
}

// SLOWindow is a sliding-window request accounting structure.
type SLOWindow struct {
	mu      sync.Mutex
	now     func() time.Time // injectable for tests
	buckets [sloRingSeconds]sloBucket
}

// SLO is the process-wide window the grading service feeds; /statusz and the
// semfeed_slo_* gauges read it.
var SLO = NewSLOWindow()

// NewSLOWindow returns an empty window.
func NewSLOWindow() *SLOWindow {
	w := &SLOWindow{now: time.Now}
	for i := range w.buckets {
		w.buckets[i].lat = make([]int64, len(DurationBuckets)+1)
	}
	return w
}

// Observe records one request outcome with its latency. No-op while metric
// collection is disabled. Shed requests count toward shed rate but not the
// latency distribution (a 429 is rejected in microseconds; folding it in
// would flatter the percentiles).
func (w *SLOWindow) Observe(d time.Duration, o Outcome) {
	if !enabled.Load() {
		return
	}
	sec := w.now().Unix()
	w.mu.Lock()
	b := &w.buckets[sec%sloRingSeconds]
	if b.sec != sec {
		b.sec = sec
		b.requests, b.errors, b.sheds = 0, 0, 0
		for i := range b.lat {
			b.lat[i] = 0
		}
	}
	b.requests++
	switch o {
	case OutcomeError:
		b.errors++
	case OutcomeShed:
		b.sheds++
	}
	if o != OutcomeShed {
		b.lat[sort.SearchFloat64s(DurationBuckets, d.Seconds())]++
	}
	w.mu.Unlock()
}

// SLOStats is one window's aggregate. Latencies are milliseconds.
type SLOStats struct {
	WindowSeconds int     `json:"window_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Sheds         int64   `json:"sheds"`
	ErrorRate     float64 `json:"error_rate"`
	ShedRate      float64 `json:"shed_rate"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// Stats folds the buckets of the trailing window. window is clamped to the
// ring capacity.
func (w *SLOWindow) Stats(window time.Duration) SLOStats {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > sloRingSeconds-1 {
		secs = sloRingSeconds - 1
	}
	nowSec := w.now().Unix()
	oldest := nowSec - secs + 1
	out := SLOStats{WindowSeconds: int(secs)}
	lat := make([]int64, len(DurationBuckets)+1)
	w.mu.Lock()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.sec < oldest || b.sec > nowSec || b.requests == 0 {
			continue
		}
		out.Requests += b.requests
		out.Errors += b.errors
		out.Sheds += b.sheds
		for j, n := range b.lat {
			lat[j] += n
		}
	}
	w.mu.Unlock()
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Errors) / float64(out.Requests)
		out.ShedRate = float64(out.Sheds) / float64(out.Requests)
	}
	out.P50MS = bucketQuantile(DurationBuckets, lat, 0.50) * 1000
	out.P99MS = bucketQuantile(DurationBuckets, lat, 0.99) * 1000
	return out
}

// Reset clears the window (tests and smoke runs).
func (w *SLOWindow) Reset() {
	w.mu.Lock()
	for i := range w.buckets {
		b := &w.buckets[i]
		b.sec, b.requests, b.errors, b.sheds = 0, 0, 0, 0
		for j := range b.lat {
			b.lat[j] = 0
		}
	}
	w.mu.Unlock()
}

// bucketQuantile estimates the q-quantile from cumulative-free bucket counts
// (Histogram.Quantile, Snapshot and the SLO windows all go through it).
func bucketQuantile(bounds []float64, buckets []int64, q float64) float64 {
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// ---------------------------------------------------------------------------
// Gauge exposition

// The SLO windows surface as gauges so a plain Prometheus scrape sees them
// without parsing /statusz. Latencies are microseconds and rates parts-per-
// million because gauges are integral.
var (
	sloP50us1m  = NewGauge("semfeed_slo_p50_us_1m", "Sliding-window p50 request latency over 1m, microseconds.")
	sloP99us1m  = NewGauge("semfeed_slo_p99_us_1m", "Sliding-window p99 request latency over 1m, microseconds.")
	sloP50us5m  = NewGauge("semfeed_slo_p50_us_5m", "Sliding-window p50 request latency over 5m, microseconds.")
	sloP99us5m  = NewGauge("semfeed_slo_p99_us_5m", "Sliding-window p99 request latency over 5m, microseconds.")
	sloReqs1m   = NewGauge("semfeed_slo_requests_1m", "Requests observed in the trailing 1m window.")
	sloReqs5m   = NewGauge("semfeed_slo_requests_5m", "Requests observed in the trailing 5m window.")
	sloErrPpm1m = NewGauge("semfeed_slo_error_ppm_1m", "Error rate over the trailing 1m window, parts per million.")
	sloErrPpm5m = NewGauge("semfeed_slo_error_ppm_5m", "Error rate over the trailing 5m window, parts per million.")
	sloShdPpm1m = NewGauge("semfeed_slo_shed_ppm_1m", "Shed (429) rate over the trailing 1m window, parts per million.")
	sloShdPpm5m = NewGauge("semfeed_slo_shed_ppm_5m", "Shed (429) rate over the trailing 5m window, parts per million.")
)

// publishSLO refreshes the semfeed_slo_* gauges from the process window. It
// runs as an exposition collector: values update when scraped, not per
// request.
func publishSLO() {
	for _, w := range []struct {
		stats                         SLOStats
		p50, p99, reqs, errPpm, shPpm *Gauge
	}{
		{SLO.Stats(time.Minute), sloP50us1m, sloP99us1m, sloReqs1m, sloErrPpm1m, sloShdPpm1m},
		{SLO.Stats(5 * time.Minute), sloP50us5m, sloP99us5m, sloReqs5m, sloErrPpm5m, sloShdPpm5m},
	} {
		w.p50.Set(int64(w.stats.P50MS * 1000))
		w.p99.Set(int64(w.stats.P99MS * 1000))
		w.reqs.Set(w.stats.Requests)
		w.errPpm.Set(int64(w.stats.ErrorRate * 1e6))
		w.shPpm.Set(int64(w.stats.ShedRate * 1e6))
	}
}

func init() { RegisterCollector(publishSLO) }
