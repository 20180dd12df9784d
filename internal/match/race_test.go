//go:build race

package match_test

// raceEnabled reports a -race build, in which sync.Pool drops pooled
// searchers at random and allocation counts say nothing about the matcher.
const raceEnabled = true
