#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout: the
# Go build cache, the toolchain's scratch space, its local telemetry counters
# (kept under XDG_CONFIG_HOME) and the binary. The build is offline and uses
# only the standard library and this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
