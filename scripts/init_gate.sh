#!/usr/bin/env bash
# Init work gate: importing the assignment loader or the knowledge base must
# build nothing, because every assignment and pattern compiles on first use.
# Runs a built `feedback -list` under GODEBUG=inittrace=1 and fails when
# semfeed/internal/assignments or semfeed/internal/kb reports more than 100
# allocations at package init. It gates allocations, not time: init clock
# time does not repeat on a shared host. A package with no init work prints
# no trace line and counts as 0.
set -euo pipefail

LIMIT=100
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

go build -o "${WORK}/feedback" ./cmd/feedback
GODEBUG=inittrace=1 "${WORK}/feedback" -list 2> "${WORK}/inittrace" > /dev/null
grep -q '^init ' "${WORK}/inittrace" || { echo "init-gate FAIL: GODEBUG=inittrace=1 printed no trace"; exit 1; }

status=0
for pkg in semfeed/internal/assignments semfeed/internal/kb; do
  # init <pkg> @<t> ms, <clock> ms clock, <bytes> bytes, <allocs> allocs
  allocs="$(awk -v pkg="${pkg}" '$1 == "init" && $2 == pkg { print $(NF-1) }' "${WORK}/inittrace")"
  allocs="${allocs:-0}"
  echo "init-gate: ${pkg}: ${allocs} allocations at init (limit ${LIMIT})"
  if [ "${allocs}" -gt "${LIMIT}" ]; then
    status=1
  fi
done
[ "${status}" -eq 0 ] || { echo "init-gate FAIL"; grep -E 'semfeed/internal/(assignments|kb) ' "${WORK}/inittrace"; exit 1; }
echo "init-gate: OK"
