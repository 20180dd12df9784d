package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It also returns how many samples lie strictly above the
// chosen rank, so a caller can tell whether the sample supports that
// percentile (the guide's rule: at least ten samples beyond it). xs is
// sorted in place. An empty sample yields (0, 0).
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// median is the 50th percentile by the same rule.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child: the parent's
// duration minus the length of the union of its children clipped to it.
// Children may overlap each other (concurrent sub-calls); the union counts
// each covered nanosecond once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
