//go:build race

package interp_test

// raceEnabled reports a -race build, in which sync.Pool drops pooled frames
// and vms at random and allocation counts say nothing about the interpreter.
const raceEnabled = true
