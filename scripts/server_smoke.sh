#!/usr/bin/env bash
# End-to-end smoke test for the grading service: export a fixture KB with
# kbdump, start semfeedd against it (file-backed only, no builtins) with JSON
# logging, tracing, pprof and JSONL trace export on, grade one submission
# over HTTP carrying a W3C traceparent, then check the full observability
# surface — X-Request-ID echo, the structured grade log line, /v1/trace/{id}
# retrieval with per-phase spans, traceparent adoption, histogram exemplars,
# /statusz SLO windows, /metrics and /debug/pprof/ — before SIGTERM, a
# clean-drain assertion, and a restart proving the exported trace file
# survives and appends across process generations. CI runs this on every
# push.
set -euo pipefail

PORT="${PORT:-18652}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
LOG="${WORK}/semfeedd.log"
trap 'kill "${SRV_PID:-}" 2>/dev/null || true; rm -rf "${WORK}"' EXIT

fail() { echo "server-smoke FAIL: $1"; [ -f "${LOG}" ] && cat "${LOG}"; exit 1; }

echo "== building"
go build -o "${WORK}/semfeedd" ./cmd/semfeedd
go build -o "${WORK}/kbdump" ./cmd/kbdump
go build -o "${WORK}/kblint" ./cmd/kblint

echo "== exporting fixture KB"
mkdir "${WORK}/kb"
"${WORK}/kbdump" -assignment assignment1 > "${WORK}/kb/assignment1.json"
"${WORK}/kblint" "${WORK}/kb/assignment1.json" || fail "fixture KB does not lint"

TRACE_FILE="${WORK}/traces.jsonl"
start_server() {
  # -trace-slow 0 makes every trace tail-retained, so /v1/trace/{id} is
  # deterministic in this smoke run.
  "${WORK}/semfeedd" -addr "${ADDR}" -kb-dir "${WORK}/kb" -no-builtin -poll 1s \
    -log-format json -pprof -trace-slow 0 -trace-export "${TRACE_FILE}" \
    >>"${LOG}" 2>&1 &
  SRV_PID=$!
  for i in $(seq 1 50); do
    if curl -sf "http://${ADDR}/readyz" >/dev/null 2>&1; then break; fi
    kill -0 "${SRV_PID}" 2>/dev/null || fail "semfeedd exited during startup"
    sleep 0.2
    [ "$i" = 50 ] && fail "server never became ready"
  done
}

echo "== starting semfeedd on ${ADDR}"
start_server
echo "== ready"

echo "== grading one submission over HTTP"
cat > "${WORK}/req.json" <<'EOF'
{"assignment": "assignment1", "id": "smoke-1",
 "source": "void assignment1(int[] a) { int sum = 0; int prod = 1; for (int i = 0; i < a.length; i++) { if (i % 2 == 1) { sum = sum + a[i]; } if (i % 2 == 0) { prod = prod * a[i]; } } System.out.println(sum); System.out.println(prod); }"}
EOF
# An inbound W3C traceparent: the server must adopt the remote trace context.
TP='00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01'
RESP="$(curl -sf -D "${WORK}/headers" -X POST -H 'Content-Type: application/json' \
  -H "traceparent: ${TP}" \
  --data @"${WORK}/req.json" "http://${ADDR}/v1/grade")" || fail "grade request failed"
echo "${RESP}" | grep -q '"report"' || fail "no report in response: ${RESP}"
echo "${RESP}" | grep -q '"id":"smoke-1"' || fail "submission ID not echoed: ${RESP}"

echo "== request-ID correlation"
RID="$(grep -i '^x-request-id:' "${WORK}/headers" | tr -d '\r' | awk '{print $2}')"
[ -n "${RID}" ] || fail "no X-Request-ID response header"
if echo "${RESP}" | grep -q '"request_id"'; then
  fail "grade reply carries a request ID; stored reports must not depend on the request: ${RESP}"
fi
grep -q "\"msg\":\"grade\"" "${LOG}" || fail "no structured grade log line"
grep -q "\"request_id\":\"${RID}\"" "${LOG}" \
  || fail "grade log line does not carry request ID ${RID}"

echo "== retrieving trace ${RID}"
TRACE="$(curl -sf "http://${ADDR}/v1/trace/${RID}")" || fail "trace retrieval failed"
echo "${TRACE}" | grep -q "\"id\":\"${RID}\"" || fail "trace ID mismatch: ${TRACE}"
echo "${TRACE}" | grep -q '"name":"grade/assignment1"' || fail "trace has no grade root span: ${TRACE}"
echo "${TRACE}" | grep -q "\"traceparent\":\"${TP}\"" \
  || fail "inbound traceparent not adopted: ${TRACE}"

echo "== per-phase spans in the text rendering"
TRACE_TEXT="$(curl -sf "http://${ADDR}/v1/trace/${RID}?format=text")" \
  || fail "text trace rendering failed"
echo "${TRACE_TEXT}" | grep -q "grade/assignment1" || fail "text trace has no grade root: ${TRACE_TEXT}"
for PHASE in parse build_epdg analysis match_sweep constraint_check; do
  echo "${TRACE_TEXT}" | grep -q "${PHASE}" \
    || fail "text trace is missing the ${PHASE} phase span:
${TRACE_TEXT}"
done
NPHASES="$(echo "${TRACE_TEXT}" | grep -c 'phase=')"
[ "${NPHASES:-0}" -ge 5 ] || fail "only ${NPHASES} phase-tagged spans, want >= 5:
${TRACE_TEXT}"

echo "== checking /statusz"
STATUSZ="$(curl -sf "http://${ADDR}/statusz")" || fail "statusz failed"
echo "${STATUSZ}" | grep -q '"slo"' || fail "statusz has no SLO block: ${STATUSZ}"
P99="$(echo "${STATUSZ}" | grep -o '"p99_ms": *[0-9.]*' | head -1 | grep -o '[0-9.]*$')"
[ -n "${P99}" ] || fail "no p99_ms in statusz: ${STATUSZ}"
awk "BEGIN{exit !(${P99} > 0)}" || fail "sliding-window p99 is zero after a grade: ${STATUSZ}"

echo "== scraping /metrics"
METRICS="$(curl -sf "http://${ADDR}/metrics")" || fail "metrics scrape failed"
echo "${METRICS}" | grep -q '^semfeed_server_requests_total 1$' \
  || fail "semfeed_server_requests_total != 1:
$(echo "${METRICS}" | grep semfeed_server || true)"
echo "${METRICS}" | grep -q '^semfeed_slo_requests_1m 1$' \
  || fail "semfeed_slo_requests_1m != 1:
$(echo "${METRICS}" | grep semfeed_slo || true)"

echo "== labeled families and build info"
echo "${METRICS}" | grep -q '^semfeed_grades_total{assignment="assignment1",status="ok"} 1$' \
  || fail "no labeled grade counter:
$(echo "${METRICS}" | grep semfeed_grades || true)"
echo "${METRICS}" | grep -q '^semfeed_phase_ns{assignment="assignment1",phase="parse"} [1-9]' \
  || fail "no per-phase cost attribution:
$(echo "${METRICS}" | grep semfeed_phase || true)"
echo "${METRICS}" | grep -q '^semfeed_build_info{' || fail "no semfeed_build_info gauge"

echo "== exemplar resolves to a retrievable trace"
EX_ID="$(echo "${METRICS}" | grep '^# exemplar semfeed_server_request_seconds_bucket' \
  | head -1 | sed 's/.*trace_id="\([^"]*\)".*/\1/')"
[ -n "${EX_ID}" ] || fail "no exemplar on semfeed_server_request_seconds:
$(echo "${METRICS}" | grep '# exemplar' || true)"
curl -sf "http://${ADDR}/v1/trace/${EX_ID}" | grep -q "\"id\":\"${EX_ID}\"" \
  || fail "exemplar trace ${EX_ID} did not resolve via /v1/trace"

echo "== checking /debug/pprof"
curl -sf "http://${ADDR}/debug/pprof/" >/dev/null || fail "pprof index not reachable with -pprof"

echo "== draining (SIGTERM)"
kill -TERM "${SRV_PID}"
if ! wait "${SRV_PID}"; then fail "semfeedd exited nonzero on SIGTERM"; fi
SRV_PID=""
grep -q "drained cleanly" "${LOG}" || fail "no clean-drain log line"
grep -q "\"msg\":\"drain_complete\"" "${LOG}" || fail "no drain_complete log line"

echo "== exported trace file holds the grade trace"
[ -s "${TRACE_FILE}" ] || fail "trace export file is empty or missing"
grep -q "\"id\":\"${RID}\"" "${TRACE_FILE}" \
  || fail "exported JSONL does not contain trace ${RID}"

echo "== restart: export file must survive and append"
start_server
# A whitespace-only source variant: semantically identical, but a distinct
# cache key, so the fresh process takes the cold grading path.
sed 's/int prod = 1/int  prod = 1/' "${WORK}/req.json" > "${WORK}/req2.json"
curl -sf -D "${WORK}/headers2" -X POST -H 'Content-Type: application/json' \
  --data @"${WORK}/req2.json" "http://${ADDR}/v1/grade" >/dev/null \
  || fail "grade request after restart failed"
RID2="$(grep -i '^x-request-id:' "${WORK}/headers2" | tr -d '\r' | awk '{print $2}')"
[ -n "${RID2}" ] || fail "no X-Request-ID after restart"
kill -TERM "${SRV_PID}"
wait "${SRV_PID}" || fail "semfeedd exited nonzero after restart"
SRV_PID=""
grep -q "\"id\":\"${RID}\"" "${TRACE_FILE}" \
  || fail "restart erased the first generation's trace ${RID}"
grep -q "\"id\":\"${RID2}\"" "${TRACE_FILE}" \
  || fail "second generation's trace ${RID2} not appended"

echo "server-smoke: OK"
