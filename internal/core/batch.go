package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/obs"
)

// Submission is one unit of batch-grading work: a source text plus an
// opaque identifier (file name, LMS submission ID) echoed back on the result.
type Submission struct {
	ID  string
	Src string
}

// BatchResult pairs one submission with its report or its failure. Exactly
// one of Report and Err is set, except for cancelled submissions, where both
// Report is nil and Err is the context error.
type BatchResult struct {
	Index  int     // position in the input slice
	ID     string  // Submission.ID, echoed
	Report *Report // nil on error or cancellation
	Err    error   // parse error, grading panic, or ctx.Err() if cancelled
}

// BatchStats aggregates one GradeAll run.
type BatchStats struct {
	Submissions int           // total submissions offered
	Graded      int           // reports produced
	Failed      int           // parse errors or isolated grading panics
	Cancelled   int           // skipped because the context was done
	Workers     int           // pool size used
	Wall        time.Duration // end-to-end wall time of the batch
	GradeTime   time.Duration // sum of per-report grading time (≈ CPU time)
}

// Throughput returns graded submissions per wall-clock second.
func (s *BatchStats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Graded) / s.Wall.Seconds()
}

// Speedup returns the ratio of summed per-submission grading time to wall
// time — the effective parallelism the pool achieved.
func (s *BatchStats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return s.GradeTime.Seconds() / s.Wall.Seconds()
}

// String renders the stats for logs.
func (s *BatchStats) String() string {
	return fmt.Sprintf("%d graded, %d failed, %d cancelled in %v (%d workers, %.1f subs/sec)",
		s.Graded, s.Failed, s.Cancelled, s.Wall, s.Workers, s.Throughput())
}

// BatchOptions tune a BatchGrader. The zero value applies the defaults.
type BatchOptions struct {
	// Workers bounds the grading goroutine pool (default GOMAXPROCS).
	Workers int
	// OnResult, when non-nil, is called for every finished submission as it
	// completes, from the worker goroutine that produced it (an LMS can
	// stream feedback instead of waiting for the whole batch). Callbacks run
	// concurrently; the callee synchronizes.
	OnResult func(BatchResult)
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BatchGrader grades whole submission batches on a bounded worker pool — the
// MOOC deployment shape, where thousands of submissions for the same
// assignment arrive around a deadline. The underlying Grader, the spec, and
// all compiled patterns are shared read-only across workers; each submission
// is parsed, built and matched independently, so the work is embarrassingly
// parallel and throughput scales with cores until memory bandwidth binds.
//
// A BatchGrader is safe for concurrent use; GradeAll calls do not share
// mutable state.
type BatchGrader struct {
	grader *Grader
	opts   BatchOptions
}

// NewBatchGrader wraps an existing grader in a batch engine.
func NewBatchGrader(g *Grader, opts BatchOptions) *BatchGrader {
	return &BatchGrader{grader: g, opts: opts}
}

// GradeAll grades every submission against spec and returns one result per
// submission, in input order. A submission that fails to parse — or whose
// grading panics — fails alone: its result carries the error and the batch
// continues. Cancelling ctx stops the batch promptly; submissions not yet
// started are marked with ctx.Err() and in-flight ones finish normally.
func (b *BatchGrader) GradeAll(ctx context.Context, spec *AssignmentSpec, subs []Submission) ([]BatchResult, *BatchStats) {
	return b.run(ctx, len(subs), func(i int) (*Report, error) {
		unit, err := parser.Parse(subs[i].Src)
		if err != nil {
			return nil, err
		}
		return b.grader.GradeUnit(unit, spec), nil
	}, func(i int) string { return subs[i].ID })
}

// GradeUnits grades pre-parsed compilation units (the harness path: the
// Table I benchmarks parse once and grade many times). Results are in input
// order; a nil unit fails that submission only.
func (b *BatchGrader) GradeUnits(ctx context.Context, spec *AssignmentSpec, units []*ast.CompilationUnit) ([]BatchResult, *BatchStats) {
	return b.run(ctx, len(units), func(i int) (*Report, error) {
		if units[i] == nil {
			return nil, fmt.Errorf("core: nil compilation unit at index %d", i)
		}
		return b.grader.GradeUnit(units[i], spec), nil
	}, func(i int) string { return "" })
}

// run is the shared pool: workers pull indexes from an atomic cursor, grade
// with panic isolation, and flush aggregate counters once at the end.
func (b *BatchGrader) run(ctx context.Context, n int, grade func(int) (*Report, error), id func(int) string) ([]BatchResult, *BatchStats) {
	start := time.Now()
	workers := b.opts.workers()
	if workers > n && n > 0 {
		workers = n
	}
	stats := &BatchStats{Submissions: n, Workers: workers}
	results := make([]BatchResult, n)

	obs.BatchesTotal.Inc()
	obs.BatchInflight.Inc()
	defer obs.BatchInflight.Dec()

	var next atomic.Int64
	var graded, failed, cancelled atomic.Int64
	var gradeNanos atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res := BatchResult{Index: i, ID: id(i)}
				if err := ctx.Err(); err != nil {
					res.Err = err
					cancelled.Add(1)
				} else {
					t0 := time.Now()
					res.Report, res.Err = gradeIsolated(grade, i)
					if res.Err != nil {
						failed.Add(1)
					} else {
						graded.Add(1)
						gradeNanos.Add(int64(time.Since(t0)))
					}
				}
				results[i] = res
				if b.opts.OnResult != nil {
					b.opts.OnResult(res)
				}
			}
		}()
	}
	wg.Wait()

	stats.Graded = int(graded.Load())
	stats.Failed = int(failed.Load())
	stats.Cancelled = int(cancelled.Load())
	stats.Wall = time.Since(start)
	stats.GradeTime = time.Duration(gradeNanos.Load())

	obs.BatchSubmissionsTotal.Add(int64(stats.Graded))
	obs.BatchErrorsTotal.Add(int64(stats.Failed))
	obs.BatchCancelledTotal.Add(int64(stats.Cancelled))
	obs.BatchSeconds.ObserveDuration(stats.Wall)
	obs.BatchWorkers.Set(int64(workers))
	return results, stats
}

// gradeIsolated converts a panic while grading one submission into that
// submission's error: a malformed input must never take down the batch (or
// the serving process wrapping it).
func gradeIsolated(grade func(int) (*Report, error), i int) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("core: grading submission %d panicked: %v", i, r)
		}
	}()
	return grade(i)
}
