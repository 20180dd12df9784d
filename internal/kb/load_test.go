package kb

import (
	"strings"
	"testing"
)

// TestBuiltinLoadAllocs bounds the allocations of loading all twelve builtin
// assignments with Builtin: each definition decoded and compiled, and its
// suite built from the arguments Compile typed, so each reference is
// rendered and parsed once.
func TestBuiltinLoadAllocs(t *testing.T) {
	const ceiling = 7500
	entries, err := builtin.ReadDir("builtin/assignments")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
	}
	if len(ids) != 12 {
		t.Fatalf("%d builtin assignments, want 12", len(ids))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, id := range ids {
			Builtin(id)
		}
	})
	if allocs > ceiling {
		t.Errorf("%.0f allocations to load the builtins, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations to load %d builtins", allocs, len(ids))
}
