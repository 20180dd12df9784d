package assignments

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestMain pins that importing the package builds nothing: every assignment
// is still unloaded when the tests start, so none was built at init.
func TestMain(m *testing.M) {
	for i := range loaded {
		if loaded[i].a != nil {
			fmt.Fprintf(os.Stderr, "assignments: %s was loaded before the tests ran\n", tableI[i])
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// TestConcurrentFirstUse loads every assignment from several goroutines at
// once; all must see the same *Assignment for an id. It is the first test
// the package runs, so under -race it covers the first use of this loader
// and of internal/kb's pattern catalog.
func TestConcurrentFirstUse(t *testing.T) {
	const workers = 8
	got := make([][]*Assignment, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				got[w] = All()
				return
			}
			for _, id := range tableI {
				got[w] = append(got[w], Get(id))
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, a := range got[w] {
			if a == nil || a != got[0][i] || a.ID != tableI[i] {
				t.Fatalf("worker %d: assignment %d (%s) is not worker 0's", w, i, tableI[i])
			}
		}
	}
}
