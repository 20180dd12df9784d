//go:build race

package pdg_test

// raceEnabled reports a -race build, whose instrumentation makes allocation
// counts say nothing about the builder.
const raceEnabled = true
