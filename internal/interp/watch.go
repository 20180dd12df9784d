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
//
// A state may also recur but for drifting counters (drift.go): slots the
// compiler proved feed only themselves and products with a zero, whose
// int cells then differ by a fixed delta per period. Such a match waits
// one more period; if the next pass lies at the same step distance with
// the same deltas, every later period repeats them, and the run jumps to
// its limit with each counter advanced by its whole drift. An exact
// recurrence is the case where every delta is 0, and needs no wait.
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
	// A drift match awaiting its confirming period: the snapshot's step
	// distance from the pass it matched (0: none), and the per-slot
	// deltas of that match.
	period int
	delta  []int64
}

// watch is called at a head pass of a watched loop whose slots may drift
// as d says.
func (v *vm) watch(w *loopWatch, fr *cframe, d *loopDrift) {
	if v.watchLeft--; v.watchLeft < 0 {
		v.watchAt = math.MaxInt
		return
	}
	if !w.on {
		v.snapshot(w, fr, 1)
		return
	}
	if w.heap == v.heapWrites && w.out == v.out.Len() && sameCells(w.globals, v.globals) {
		if match, drifts := d.match(w.slots, fr.slots); match {
			period := v.steps - w.steps
			if !drifts {
				v.fastForward(fr, period, nil)
				return
			}
			if w.drift(fr.slots) && period == w.period {
				v.fastForward(fr, period, w.delta)
				return
			}
			w.period = 0
			if d.guardsHold(fr.slots, w.delta) {
				// The confirming pass is as many passes ahead as this one
				// is behind, so the same window reaches it.
				v.snapshot(w, fr, w.window)
				w.period = period
				return
			}
		}
	}
	if w.left--; w.left == 0 {
		v.snapshot(w, fr, 2*w.window)
	}
}

func (v *vm) snapshot(w *loopWatch, fr *cframe, window int) {
	w.on = true
	w.steps, w.heap, w.out = v.steps, v.heapWrites, v.out.Len()
	w.window, w.left = window, window
	w.period = 0
	w.slots = append(w.slots[:0], fr.slots...)
	w.globals = append(w.globals[:0], v.globals...)
}

// drift sets w.delta to the deltas of the current slots over the
// snapshot's, which match but for drifting int cells, and reports whether
// they equal the deltas it held.
func (w *loopWatch) drift(cur []val) bool {
	same := len(w.delta) == len(cur)
	if !same {
		w.delta = make([]int64, len(cur))
	}
	for i, a := range w.slots {
		var d int64
		if a.isInt() {
			d = cur[i].n - a.n
		}
		same = same && d == w.delta[i]
		w.delta[i] = d
	}
	return same
}

// fastForward charges the largest multiple of the period that keeps the
// run within its budget and advances each slot by its delta (nil: none)
// per period charged, in int64 arithmetic, which wraps as executing those
// periods would. The run then goes on from the state the full run has
// there, so it fails at the node, with the Steps and the output, of the
// full run.
func (v *vm) fastForward(fr *cframe, period int, delta []int64) {
	k := (v.budget - v.steps) / period
	v.steps += k * period
	v.skipped += k * period
	for i, d := range delta {
		if d != 0 {
			fr.slots[i].n += int64(k) * d
		}
	}
	v.watchAt = math.MaxInt
}

// match reports whether the current slots equal the snapshot's but for
// the int cells of drift-eligible slots, and whether any of those differ.
func (d *loopDrift) match(snap, cur []val) (match, drifts bool) {
	for i, a := range snap {
		b := cur[i]
		if sameCell(a, b) {
			continue
		}
		if i >= len(d.eligible) || !d.eligible[i] || !a.isInt() || !b.isInt() {
			return false, false
		}
		drifts = true
	}
	return true, drifts
}

// guardsHold reports whether every product that reads a drifting slot is
// zero at every evaluation: its zero-candidate holds int 0 and its
// factor's locals hold ints, which their int-stable writes keep. A double
// would not do: it can overflow to ∞, and 0·∞ is NaN.
func (d *loopDrift) guardsHold(slots []val, delta []int64) bool {
	for _, g := range d.guards {
		drifts := false
		for _, sl := range g.slots {
			drifts = drifts || delta[sl] != 0
		}
		if !drifts {
			continue
		}
		if z := slots[g.zero]; !z.isInt() || z.n != 0 {
			return false
		}
		for _, sl := range g.slots {
			if !slots[sl].isInt() {
				return false
			}
		}
	}
	return true
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
