//go:build race

package core_test

// raceEnabled reports a -race build, in which sync.Pool drops pooled
// searchers at random and allocation counts say nothing about the grader.
const raceEnabled = true
