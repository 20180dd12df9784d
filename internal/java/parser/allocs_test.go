package parser_test

import (
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/java/parser"
)

// TestParseAllocs bounds the allocations of one Parse of BenchmarkParse's
// input, rit-all-g-medals' reference solution: lexing, parsing and the
// tokens between them.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const ceiling = 120
	src := assignments.Get("rit-all-g-medals").Reference()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := parser.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("%.0f allocations per parse, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per parse", allocs)
}
