# Standard development entry points. Everything is stdlib-only Go; no
# external dependencies or network access required.

GO ?= go

.PHONY: all build test race bench bench-smoke perfbench table table-json metrics-smoke metrics-lint init-gate server-smoke cluster-smoke statusz-smoke javalint-smoke fuzz fmt vet examples clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep: Table I columns T and M, the Section VI-C
# comparisons, and the construction ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Cheap CI guard for the perf-critical paths: compile and run the matcher,
# batch-grading, grade-handler (store hit and miss) and interpreter
# (terminating and step-limited) benchmarks once (-benchtime=1x), so
# benchmark rot and gross regressions (panics, step-limit blowups) surface
# on every push without the cost of a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkMatcher|BenchmarkMatcherColdGraphs' -benchtime=1x ./internal/match/
	$(GO) test -run '^$$' -bench 'BenchmarkGradeAll' -benchtime=1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkGradeHit|BenchmarkGradeMiss' -benchtime=1x ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkInterpCompiled|BenchmarkInterpStepLimit|BenchmarkInterpTreeWalk' -benchtime=1x .

# Regenerate Table I (sampled; raise -n for tighter D estimates).
table:
	$(GO) run ./cmd/tableone -n 1000

# Machine-readable Table I sweep (T, M, D plus matcher work counters) for
# tracking the perf trajectory across PRs.
table-json:
	$(GO) run ./cmd/tableone -n 200 -json

# Observability smoke: grade a reference submission with tracing and the
# metrics dump on, and assert the span tree and the Prometheus exposition
# are both non-empty.
metrics-smoke:
	@out=$$($(GO) run ./cmd/feedback -assignment assignment1 -reference -trace -metrics-dump 2>&1); \
	echo "$$out" | grep -q 'semfeed_grades_total{assignment="assignment1",status="ok"} 1' || { echo "metrics-smoke FAIL: no labeled grade counter"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'semfeed_phase_ns{assignment="assignment1",phase="parse"}' || { echo "metrics-smoke FAIL: no per-phase cost attribution"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "grade/assignment1" || { echo "metrics-smoke FAIL: no span tree"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "match:" || { echo "metrics-smoke FAIL: no per-pattern match spans"; echo "$$out"; exit 1; }; \
	echo "metrics-smoke: OK"

# Metrics-reference lint: the generated table embedded in the README must
# match the live registry in both directions. See scripts/metrics_lint.sh.
metrics-lint:
	bash scripts/metrics_lint.sh

# Init work gate: feedback -list under GODEBUG=inittrace=1 must show at
# most 100 allocations at init for internal/assignments and internal/kb,
# which build every assignment and pattern on first use instead. See
# scripts/init_gate.sh.
init-gate:
	bash scripts/init_gate.sh

# Grading-service smoke: fixture KB via kbdump, semfeedd over HTTP with JSON
# logs + tracing + pprof, request-ID/trace/statusz correlation checks, SIGTERM
# drain. See scripts/server_smoke.sh.
server-smoke:
	bash scripts/server_smoke.sh

# Cluster smoke: coordinator + 2 worker processes with disk stores, graded
# through the coordinator; asserts stable routing (store hit on resubmit),
# cross-process trace correlation under one request ID, zero 5xx after a
# worker is SIGKILLed mid-run, and reroute/worker-gauge accounting. See
# scripts/cluster_smoke.sh.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# SLO-window smoke: burst of grades, then assert /statusz and the
# semfeed_slo_* gauges report non-zero sliding-window traffic and latency.
# Runs the metrics-reference lint first, so doc drift fails fast.
statusz-smoke: metrics-lint
	bash scripts/statusz_smoke.sh

# Static-analyzer smoke: the clean fixture must lint silently with exit 0,
# the buggy one must produce findings and exit nonzero.
javalint-smoke:
	@$(GO) run ./cmd/javalint examples/javalint/Clean.java || { echo "javalint-smoke FAIL: clean fixture flagged"; exit 1; }
	@if $(GO) run ./cmd/javalint examples/javalint/Buggy.java > /tmp/javalint-smoke.out 2>&1; then \
		echo "javalint-smoke FAIL: buggy fixture linted clean"; exit 1; \
	fi
	@grep -q "deadstore" /tmp/javalint-smoke.out || { echo "javalint-smoke FAIL: no deadstore finding"; cat /tmp/javalint-smoke.out; exit 1; }
	@echo "javalint-smoke: OK"

# The repository benchmark (perfbench/, contract in BENCHMARK.json): each
# workload once at the pinned seed 1, 10 s, untraced. Prints one result line
# per workload; a run's diagnostics go to .bench_build/<workload>.err and are
# printed if it fails. Comparing two trees needs interleaved runs over
# several seeds: see perfbench/README.md.
perfbench:
	@mkdir -p .bench_build
	@for w in serve-cold serve-resubmit tableone; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 > .bench_build/$$w.out 2> .bench_build/$$w.err \
			|| { cat .bench_build/$$w.err; exit 1; }; \
		echo "$$w $$(tail -n 1 .bench_build/$$w.out)"; \
	done

fuzz:
	$(GO) test ./internal/java/parser -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/interp -fuzz FuzzRun -fuzztime 30s
	$(GO) test ./internal/expr -fuzz FuzzTemplateMatch -fuzztime 30s

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/assignment1
	$(GO) run ./examples/moocbatch -n 200
	$(GO) run ./examples/badpatterns
	$(GO) run ./examples/multimethod
	$(GO) run ./examples/futurework

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
