package expr

import (
	"fmt"
	"regexp"
	"sync"
	"testing"
)

// TestRegexCacheBounded matches a re: alternative under more distinct
// namings than the regex cache holds, from several goroutines at once. Each
// naming is a new γ-substituted pattern, so the cache must stop exactly at
// its cap, and every match, cached or compiled past the cap, must agree with
// a freshly compiled regexp.
func TestRegexCacheBounded(t *testing.T) {
	const workers = 4
	tmpl := MustCompile([]string{`re:^${x}\s*\+=\s*1$`}, []string{"x"})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint namings per goroutine; '$' is legal in Java names
			// and must be quoted.
			for i := w; i < regexCacheCap+200; i += workers {
				name := fmt.Sprintf("n%d$", i)
				fresh := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `\s*\+=\s*1$`)
				for _, content := range []string{name + " += 1", name + " += 2", "m" + name + " += 1"} {
					got := tmpl.Match(map[string]string{"x": name}, []string{content})
					if want := fresh.MatchString(content); got != want {
						t.Errorf("naming %q over %q: cached match %v, fresh compile %v", name, content, got, want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	entries := 0
	regexCache.Range(func(_, _ any) bool { entries++; return true })
	if entries != regexCacheCap {
		t.Errorf("regex cache holds %d entries, want the cap %d", entries, regexCacheCap)
	}
	if n := regexCacheLen.Load(); n != regexCacheCap {
		t.Errorf("regex cache count = %d, want the cap %d", n, regexCacheCap)
	}
}
