package interp

import "math"

// Loop fast-forward. The engine is deterministic, so a run whose whole
// state at a loop head recurs within one entry of the loop, in one
// activation, repeats the same P steps until its budget runs out: its
// verdict, Steps, output and error line are fixed once one period is
// known. The state is the frame's slots, the globals, the output length
// and the count of heap writes: caller frames cannot change while the
// activation runs, output is never read back, and the heap changes only
// through the counted writes, so two passes with one state have one
// future. A tracer would see the skipped periods' events, so a traced run
// is never watched.
const (
	// watchArmSteps: loop heads are watched only once a run has charged
	// this many steps, so the short runs of terminating programs pay one
	// compare per loop iteration.
	watchArmSteps = 2048
	// watchMaxChecks bounds the snapshots and compares of one run, so a
	// run whose state never recurs pays a fixed cost. It caps the windows
	// at 64 passes: a loop whose period is longer runs in full.
	watchMaxChecks = 128
)

// loopWatch is the recurrence detector of one loop in one activation, Brent
// style: it holds the state of one head pass and compares the next window
// passes against it; when the window ends without a match it snapshots the
// current pass and doubles the window.
type loopWatch struct {
	on      bool // a snapshot of the current entry of the loop is held
	steps   int  // v.steps at the snapshot
	heap    int  // v.heapWrites at the snapshot
	out     int  // v.out.Len() at the snapshot
	window  int
	left    int // passes left in the window
	slots   []val
	globals []val
}

// watch is called at a head pass of a watched loop.
func (v *vm) watch(w *loopWatch, fr *cframe) {
	if v.watchLeft--; v.watchLeft < 0 {
		v.watchAt = math.MaxInt
		return
	}
	if !w.on {
		v.snapshot(w, fr, 1)
		return
	}
	if w.heap == v.heapWrites && w.out == v.out.Len() &&
		sameCells(w.slots, fr.slots) && sameCells(w.globals, v.globals) {
		v.fastForward(v.steps - w.steps)
		return
	}
	if w.left--; w.left == 0 {
		v.snapshot(w, fr, 2*w.window)
	}
}

func (v *vm) snapshot(w *loopWatch, fr *cframe, window int) {
	w.on = true
	w.steps, w.heap, w.out = v.steps, v.heapWrites, v.out.Len()
	w.window, w.left = window, window
	w.slots = append(w.slots[:0], fr.slots...)
	w.globals = append(w.globals[:0], v.globals...)
}

// fastForward charges the largest multiple of the period that keeps the
// run within its budget. The run then goes on from the same state, so it
// fails at the node, with the Steps and the output, of the full run.
func (v *vm) fastForward(period int) {
	skip := (v.budget - v.steps) / period * period
	v.steps += skip
	v.skipped += skip
	v.watchAt = math.MaxInt
}

// sameCell reports whether two cells hold the same value bit for bit:
// float64 compares by its bits, so -0.0 and 0.0 differ and a NaN equals
// itself; references compare by identity, strings by content.
func sameCell(a, b val) bool {
	if a.n != b.n {
		return false
	}
	if a.isInt() {
		return b.isInt()
	}
	if f, ok := a.v.(float64); ok {
		g, ok := b.v.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(g)
	}
	return a.v == b.v
}

func sameCells(a, b []val) bool {
	for i := range a {
		if !sameCell(a[i], b[i]) {
			return false
		}
	}
	return true
}
