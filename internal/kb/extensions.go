package kb

import "semfeed/internal/pattern"

// Extension returns a compiled extension pattern; it panics on unknown names.
// Extension patterns implement the paper's Section VII future work — pattern
// variability: the same semantics achieved by a different strategy. They are
// loaded from builtin/extensions.json, kept outside the 24-pattern published
// catalog and combined with catalog patterns through pattern.Group.
func Extension(name string) *pattern.Compiled {
	_, ext := patterns()
	p, ok := ext[name]
	if !ok {
		panic("kb: unknown extension pattern " + name)
	}
	return p
}

// ExtensionNames lists the extension patterns, sorted.
func ExtensionNames() []string {
	_, ext := patterns()
	return sortedNames(ext)
}

// EvenAccessGroup is the variability cluster the paper uses as its running
// future-work example: accessing even positions either with an i % 2 == 0
// check (the catalog's seq-even-access) or by striding the index with i += 2
// and no parity check (stride-2-even-access). Section VI-B's third
// discrepancy class disappears under this group.
func EvenAccessGroup() *pattern.Group {
	return pattern.MustGroup(
		"even-access-any",
		"Accessing even positions of an array, by parity check or by index striding",
		"You are not visiting the even positions of the array; either loop with i % 2 == 0 or stride the index with i += 2",
		Pattern("seq-even-access"),
		Extension("stride-2-even-access"),
	)
}

// MulAccumGroup clusters the two shapes of a product accumulation: guarded
// by an inner condition inside a loop (the catalog's cond-accumulate-mul) or
// directly under a single loop condition (loop-accumulate-mul), which is how
// the stride-2 strategy accumulates.
func MulAccumGroup() *pattern.Group {
	return pattern.MustGroup(
		"mul-accumulate-any",
		"Accumulating a product, under a guard or directly in the loop",
		"No cumulative multiplication found; multiply an accumulator seeded with 1 inside a loop",
		Pattern("cond-accumulate-mul"),
		Extension("loop-accumulate-mul"),
	)
}
