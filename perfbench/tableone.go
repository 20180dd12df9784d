package main

import (
	"fmt"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/bench"
	"semfeed/internal/core"
)

const (
	// tableN is the per-assignment budget of one sweep: cmd/tableone's
	// default -n, 2,344 submissions over the 12 rows.
	tableN = 200
	// tableWarmupN is the budget of the warm-up sweep in set-up.
	tableWarmupN = 5
	// replayPerAssignment bounds the sources replayed per assignment on a
	// traced run.
	replayPerAssignment = 50
)

// tableRun is the tableone workload after set-up: the Table I sweep as
// `tableone -n 200 -seed S` runs it, with telemetry and analysis off as in
// that command's defaults.
type tableRun struct {
	seed int64
	opts bench.Options
}

// setupTable runs a small warm-up sweep, so the timed sweeps find every code
// path loaded and the heap grown. The warm-up takes the same sample at every
// seed (seed 0, the historical walk): which submissions exhaust the
// interpreter's step budget varies with the sample, and set-up time must
// not.
func setupTable(seed int64) *tableRun {
	setTelemetry(false)
	for _, a := range assignments.All() {
		bench.MeasureRowOpts(a, bench.Options{MaxSubs: tableWarmupN})
	}
	return &tableRun{seed: seed, opts: bench.Options{MaxSubs: tableN, Seed: seed}}
}

// sweep runs one sweep exactly as bench.MeasureAllOpts does (every row in
// Table I order); with log set it records a span for the sweep and for each
// row. The slice counts graded submissions as operations.
func (t *tableRun) sweep(log *spanLog) ([]bench.Row, slice, runtimeDelta) {
	cpu0, rt0 := processCPU(), readRuntime()
	start := time.Now()
	var s slice
	var rows []bench.Row
	for _, a := range assignments.All() {
		r0 := time.Now()
		row := bench.MeasureRowOpts(a, t.opts)
		r1 := time.Now()
		if log != nil {
			log.add(span{kind: spanRow, req: -1, label: a.ID, iv: interval{int64(r0.Sub(log.epoch)), int64(r1.Sub(log.epoch))}})
		}
		s.ops += int64(row.Evaluated)
		rows = append(rows, row)
	}
	end := time.Now()
	if log != nil {
		log.add(span{kind: spanSweep, req: -1, iv: interval{int64(start.Sub(log.epoch)), int64(end.Sub(log.epoch))}})
	}
	s.wall = end.Sub(start)
	s.cpu = processCPU() - cpu0
	return rows, s, readRuntime().sub(rt0)
}

// checkRows checks every row of every sweep: parse failures and
// discrepancies equal the pins at the default seed; at any seed the
// exhaustive rows, which do not depend on it, equal the pins; and every
// sweep of a run equals its first. It returns the submissions of wrong rows.
func checkRows(sweeps [][]bench.Row, seed int64, p *pins) (wrong int64, firstErr string) {
	for si, rows := range sweeps {
		for ri, row := range rows {
			var problem string
			pin, pinned := p.Table[row.Assignment]
			switch {
			case !pinned:
				problem = "no pinned row"
			case (seed == defaultSeed || row.Exhaustive) && (row.D != pin.Discrepancies || row.ParseFail != pin.ParseFailures):
				problem = fmt.Sprintf("discrepancies %d, parse failures %d; pinned %d, %d", row.D, row.ParseFail, pin.Discrepancies, pin.ParseFailures)
			case si > 0 && (row.D != sweeps[0][ri].D || row.ParseFail != sweeps[0][ri].ParseFail || row.Evaluated != sweeps[0][ri].Evaluated):
				problem = fmt.Sprintf("sweep %d differs from sweep 0", si)
			}
			if problem != "" {
				wrong += int64(row.Evaluated)
				if firstErr == "" {
					firstErr = row.Assignment + ": " + problem
				}
			}
		}
	}
	return wrong, firstErr
}

// replaySample is the first replayPerAssignment submissions of each row's
// sample: sources the sweep graded and tested.
func (t *tableRun) replaySample() []replayItem {
	var items []replayItem
	for _, a := range assignments.All() {
		ks := a.Synth.SampleSeed(tableN, t.seed)
		if len(ks) > replayPerAssignment {
			ks = ks[:replayPerAssignment]
		}
		for _, k := range ks {
			items = append(items, replayItem{a: a, src: a.Synth.Render(k)})
		}
	}
	return items
}

// tableGradeOptions are the grader options of the sweep: analysis off.
var tableGradeOptions = core.Options{}
