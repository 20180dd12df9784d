package core

import (
	"time"

	"semfeed/internal/functest"
	"semfeed/internal/obs"
)

// RunFuncTests executes an assignment's functional-test suite on the
// compiled interpreter (through the source-hash program cache) as an
// attributable phase: it opens a span, slices semfeed_phase_ns under
// "functest" (and "interp_compile" for the lowering share), and stamps the
// verdict's cost onto stats when non-nil.
//
// Compile time and cache traffic are measured as deltas of the shared
// functest.ProgramCache stats (counted by the cache itself, so they populate
// with metrics collection off), which means concurrent suites would
// cross-attribute; the CLI and bench harness run suites sequentially.
func RunFuncTests(id string, suite *functest.Suite, src string, stats *Stats) (functest.Verdict, error) {
	sp := obs.StartTrace("functest/" + id)
	cs0 := functest.ProgramCache.Stats()

	t0 := time.Now()
	verdict, err := suite.RunSource(src)
	if err != nil {
		sp.End()
		return functest.Verdict{}, err
	}
	elapsed := time.Since(t0)
	cs1 := functest.ProgramCache.Stats()
	compileNS := cs1.CompileNS - cs0.CompileNS
	cacheHits := cs1.Hits - cs0.Hits
	cacheMisses := cs1.Misses - cs0.Misses

	sp.SetAttr("phase", "functest")
	sp.SetAttrInt("cases", int64(verdict.Cases))
	sp.SetAttrInt("interp_steps", int64(verdict.Steps))
	sp.SetAttrInt("compile_ns", compileNS)
	sp.End()
	obs.PhaseNS.Add(elapsed.Nanoseconds(), id, "functest")
	if compileNS > 0 {
		obs.PhaseNS.Add(compileNS, id, "interp_compile")
	}

	if stats != nil {
		stats.FuncTestTime += elapsed
		stats.FuncTestCases += verdict.Cases
		stats.InterpSteps += int64(verdict.Steps)
		stats.InterpCompileTime += time.Duration(compileNS)
		stats.InterpCacheHits += cacheHits
		stats.InterpCacheMisses += cacheMisses
	}
	return verdict, nil
}
