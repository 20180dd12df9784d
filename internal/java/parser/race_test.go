//go:build race

package parser_test

// raceEnabled reports a -race build, whose instrumentation makes allocation
// counts say nothing about the parser.
const raceEnabled = true
