//go:build !race

package interp_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
