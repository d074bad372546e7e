#!/usr/bin/env bash
# End-to-end drill for the net::Gateway front door: start the long-running
# gateway_demo host, drive real traffic through every demo route, verify
# the in-process /metrics, /healthz, /slo and /debug/flight endpoints
# answer through the same socket (and that the SLO snapshot and flight
# dump parse), then run the exp_gateway load generator for the
# machine-readable BENCH_exp_gateway.json artifact.
#
# Usage:
#   scripts/gateway_e2e.sh
#
# Environment:
#   BUILD_DIR  cmake build tree                 (default: build)
#   OUT_DIR    where artifacts land             (default: $BUILD_DIR/gateway-e2e)
#   PORT       gateway_demo listen port         (default: 8217)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-${BUILD_DIR}/gateway-e2e}"
PORT="${PORT:-8217}"

mkdir -p "${OUT_DIR}"
repo_root="$(pwd)"

# Short SLO epochs so the drill sees at least one window rotation (and the
# burn-rate state of the slo:<route> rows in /healthz) before it scrapes.
REDUNDANCY_GATEWAY_PORT="${PORT}" REDUNDANCY_GATEWAY_LINGER_MS=120000 \
  REDUNDANCY_SLO_EPOCH_MS=500 \
  "${BUILD_DIR}/examples/gateway_demo" > "${OUT_DIR}/demo.log" & server=$!
trap 'kill "${server}" 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  curl -sf "localhost:${PORT}/healthz" -o "${OUT_DIR}/healthz.txt" && break
  sleep 0.2
done

# Drive traffic through every route; answers must be exact.
test "$(curl -sf "localhost:${PORT}/echo?x=41")" = "41"
fast_a="$(curl -sf "localhost:${PORT}/fast?x=7")"
fast_b="$(curl -sf "localhost:${PORT}/fast?x=7")"   # cache hit, same answer
vote="$(curl -sf "localhost:${PORT}/vote?x=7")"     # majority of 3 variants
test "${fast_a}" = "${fast_b}"
test "${fast_a}" = "${vote}"
for i in $(seq 1 100); do
  curl -sf "localhost:${PORT}/fast?x=${i}" > /dev/null
done
curl -s -o /dev/null -w '%{http_code}' "localhost:${PORT}/nope" | grep -q 404

# Let one SLO epoch close so the windowed rows and the slo:<route> rows
# of /healthz have something to show.
sleep 1.2

# Operational endpoints, through the same front door, after real load.
curl -sf "localhost:${PORT}/metrics" -o "${OUT_DIR}/metrics_gateway.prom"
grep -q 'gateway_requests' "${OUT_DIR}/metrics_gateway.prom"
grep -q 'gateway_accepted' "${OUT_DIR}/metrics_gateway.prom"
grep -q 'technique_requests_total{technique="gateway_fast"}' \
  "${OUT_DIR}/metrics_gateway.prom"
curl -sf "localhost:${PORT}/healthz" -o "${OUT_DIR}/healthz.txt"
grep -q 'error_rate=' "${OUT_DIR}/healthz.txt"

# Live SLO snapshot: the demo registers /fast and /vote by default, and the
# traffic above must show up in the windowed rows.
curl -sf "localhost:${PORT}/slo" -o "${OUT_DIR}/slo_gateway.jsonl"
grep -q '"type":"slo_window"' "${OUT_DIR}/slo_gateway.jsonl"
grep -q '"type":"slo_class"' "${OUT_DIR}/slo_gateway.jsonl"
grep -q '"class":"/fast"' "${OUT_DIR}/slo_gateway.jsonl"
# The scrapes above must not have become SLO classes of their own. A
# negated command never trips `set -e`, hence the explicit exit.
! grep -q '"class":"/metrics"' "${OUT_DIR}/slo_gateway.jsonl" || exit 1

# Black box: trigger a flight dump through the front door; the served body
# is the same JSONL a crash handler would append.
curl -sf "localhost:${PORT}/debug/flight" -o "${OUT_DIR}/flight_gateway.jsonl"
grep -q '"type":"flight_header"' "${OUT_DIR}/flight_gateway.jsonl"
grep -q '"kind":"gateway"' "${OUT_DIR}/flight_gateway.jsonl"

# Both artifacts must parse through the tracetool analyzers when the tool
# was built alongside the demo.
if [ -x "${BUILD_DIR}/tools/tracetool" ]; then
  "${BUILD_DIR}/tools/tracetool" slo --out="${OUT_DIR}/slo_gateway.md" \
    "${OUT_DIR}/slo_gateway.jsonl"
  grep -q '| /fast |' "${OUT_DIR}/slo_gateway.md"
  "${BUILD_DIR}/tools/tracetool" flight --out="${OUT_DIR}/flight_gateway.md" \
    "${OUT_DIR}/flight_gateway.jsonl"
  grep -q '| kind | events |' "${OUT_DIR}/flight_gateway.md"
fi

kill "${server}"
wait "${server}"   # clean shutdown must report zero jobs in flight
trap - EXIT

# Multi-reactor drill: the same host sharded across two reactor loops.
# Every loop must accept and serve traffic (loop="N"-labelled metric
# shards) and drain to zero jobs in flight on shutdown.
REDUNDANCY_GATEWAY_PORT="${PORT}" REDUNDANCY_GATEWAY_LINGER_MS=120000 \
  REDUNDANCY_GATEWAY_LOOPS=2 REDUNDANCY_SLO_EPOCH_MS=500 \
  "${BUILD_DIR}/examples/gateway_demo" > "${OUT_DIR}/demo_loops2.log" &
server=$!
trap 'kill "${server}" 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  curl -sf "localhost:${PORT}/healthz" -o /dev/null && break
  sleep 0.2
done
grep -q 'with 2 reactor loops' "${OUT_DIR}/demo_loops2.log"

# Fresh connections hash across the two listeners; enough
# sequential requests land traffic on both loops.
for i in $(seq 1 64); do
  test "$(curl -sf "localhost:${PORT}/echo?x=${i}")" = "${i}"
done
curl -sf "localhost:${PORT}/metrics" -o "${OUT_DIR}/metrics_loops2.prom"
grep -q 'gateway_accepted_total{loop="0"}' "${OUT_DIR}/metrics_loops2.prom"
grep -q 'gateway_accepted_total{loop="1"}' "${OUT_DIR}/metrics_loops2.prom"
grep -q 'gateway_requests_total{loop="0"}' "${OUT_DIR}/metrics_loops2.prom"
grep -q 'gateway_requests_total{loop="1"}' "${OUT_DIR}/metrics_loops2.prom"

# /echo is a short leaf: once 32 runs in a row stay under the inline
# budget (one pool round trip, 20 us) it runs on the loops. A run on a pool
# worker left cold by the curl processes above can overrun the budget and
# restart that streak, so keep-alive bursts of /echo follow until the
# loops report inline runs.
inline_total() {
  curl -sf "localhost:${PORT}/metrics" |
    awk '/^gateway_inline_requests_total/ { n += $NF } END { print n + 0 }'
}
echo_burst=()
for i in $(seq 1 64); do echo_burst+=("localhost:${PORT}/echo?x=${i}"); done
for burst in $(seq 1 20); do
  [ "$(inline_total)" -gt 0 ] && break
  curl -sf "${echo_burst[@]}" > /dev/null
done
test "$(inline_total)" -gt 0

# /vote fans out only until its threaded electorate has learned the calling
# thread; then it is a short leaf too and earns the loops. Keep-alive
# bursts of /vote follow until the inline count rises past /echo's.
after_echo="$(inline_total)"
vote_burst=()
for i in $(seq 1 128); do vote_burst+=("localhost:${PORT}/vote?x=${i}"); done
for burst in $(seq 1 20); do
  [ "$(inline_total)" -gt "${after_echo}" ] && break
  curl -sf "${vote_burst[@]}" > /dev/null
done
test "$(inline_total)" -gt "${after_echo}"

kill "${server}"
wait "${server}"   # exit code re-checks zero jobs in flight
trap - EXIT
grep -q 'loop 0 jobs in flight: 0' "${OUT_DIR}/demo_loops2.log"
grep -q 'loop 1 jobs in flight: 0' "${OUT_DIR}/demo_loops2.log"

# The load generator: brief closed+open-loop run plus the connection-scale
# part (fd-budget scaled; the 10k gate arms itself on >= 4 cores).
(cd "${OUT_DIR}" &&
  REDUNDANCY_GATEWAY_DURATION_MS="${GATEWAY_BENCH_DURATION_MS:-1000}" \
    "${repo_root}/${BUILD_DIR}/bench/exp_gateway")

echo "gateway-e2e artifacts in ${OUT_DIR}:"
ls "${OUT_DIR}"
