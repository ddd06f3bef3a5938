#!/usr/bin/env bash
# Serving smoke suite: boots the release `mintri serve` binary, drives
# the whole HTTP surface with curl, asserts the warm-replay contract
# (`"is_replay":true` on the second identical query) and the ranked
# best-k contract (output-sensitive scan by default, `"ranked": false`
# forces the exhaustive scan, identical winners either way), checks the
# observability surface (`/v1/metrics` counters advance, replay hits
# and ranked queries register, a deliberately slow best-k lands in the
# slow-query ring, and a `"trace": true` response round-trips through
# the core JSON parser via `bench_check --parse`), asserts `/v1/stats`
# reports sessions (and, with a store attached, the `store` block) and
# round-trips `bench_check --parse`, proves malformed
# input answers a structured 400 without killing the server, checks a
# `timeout_ms` query ends cancelled with a 200, and fails
# on any non-2xx or on a leaked server process.
#
# A second leg reboots the server with `--store-dir`: a query is warmed,
# the process is SIGTERMed once the write-behind snapshots are
# published, and the restarted server must answer the first repeat query
# with `"is_replay":true` (graph registry, plan and answer cache all
# hydrated from disk) with the store-hit counters advancing.
#
# Usage: ci/serve_smoke.sh [BINARY] [BENCH_CHECK]
#        (defaults target/release/mintri, bench_check next to BINARY)
set -euo pipefail

BIN=${1:-target/release/mintri}
BENCH_CHECK=${2:-$(dirname "${1:-target/release/mintri}")/bench_check}
PORT=${MINTRI_SMOKE_PORT:-7765}
ADDR="127.0.0.1:$PORT"
BASE="http://$ADDR"

fail() { echo "SERVE SMOKE FAILED: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "$BIN is not an executable (build release first)"

# --slow-query-ms 0 makes every query "slow" so the slow-query ring is
# deterministic to assert on.
"$BIN" serve --addr "$ADDR" --max-sessions 16 --slow-query-ms 0 &
SERVER_PID=$!
cleanup() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

# Wait for the server to come up (and notice if it died on the spot).
up=""
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server process died during startup"
    sleep 0.2
done
[ -n "$up" ] || fail "server never answered /healthz"

echo "== healthz"
curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || fail "healthz did not answer ok"

echo "== upload graph"
GRAPH='{"nodes":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}'
GID=$(curl -sf -X POST "$BASE/v1/graphs" -d "$GRAPH" | sed -n 's/.*"graph_id":"\([^"]*\)".*/\1/p')
[ -n "$GID" ] || fail "upload returned no graph_id"
echo "   graph_id=$GID"

ENUM="{\"graph_id\":\"$GID\",\"query\":{\"task\":{\"type\":\"enumerate\"}}}"
# The retired `delivery` key is ignored on read, so older clients still
# decode. Every stream is the sequential schedule, which pins the
# exhaustive gear's tie-break order, so the winners below are comparable
# across gears.
BESTK="{\"graph_id\":\"$GID\",\"query\":{\"task\":{\"type\":\"best_k\",\"k\":2,\"cost\":\"width\"},\"delivery\":\"deterministic\"}}"

echo "== cold enumerate"
COLD=$(curl -sf -X POST "$BASE/v1/query" -d "$ENUM")
echo "$COLD" | grep -q '"count":14'        || fail "C6 must have 14 minimal triangulations: $COLD"
echo "$COLD" | grep -q '"is_replay":false' || fail "first query must compute: $COLD"

echo "== best-k (ranked gear, the wire default)"
RANKED_RESP=$(curl -sf -X POST "$BASE/v1/query" -d "$BESTK")
echo "$RANKED_RESP" | grep -q '"count":2' || fail "best-k must return 2 items: $RANKED_RESP"
# The ranked gear is output-sensitive: the scan stops at k winners
# instead of draining C6's 14 triangulations.
echo "$RANKED_RESP" | grep -q '"scanned":2' || fail "ranked best-k must scan only k results: $RANKED_RESP"
echo "$RANKED_RESP" | grep -q '"completed":true' || fail "ranked best-k must prove its winners: $RANKED_RESP"

echo "== best-k (\"ranked\": false forces the exhaustive scan)"
BESTK_EXH="{\"graph_id\":\"$GID\",\"query\":{\"task\":{\"type\":\"best_k\",\"k\":2,\"cost\":\"width\"},\"delivery\":\"deterministic\",\"ranked\":false}}"
EXH_RESP=$(curl -sf -X POST "$BASE/v1/query" -d "$BESTK_EXH")
echo "$EXH_RESP" | grep -q '"count":2' || fail "exhaustive best-k must return 2 items: $EXH_RESP"
echo "$EXH_RESP" | grep -q '"scanned":14' || fail "exhaustive best-k must scan all 14 results: $EXH_RESP"
# Same winners either way: every minimal triangulation of C6 has width 2.
RANKED_ITEMS=$(echo "$RANKED_RESP" | sed -n 's/.*"items":\(\[.*\]\),"count".*/\1/p')
EXH_ITEMS=$(echo "$EXH_RESP" | sed -n 's/.*"items":\(\[.*\]\),"count".*/\1/p')
[ -n "$RANKED_ITEMS" ] || fail "ranked best-k response must carry items: $RANKED_RESP"
[ "$RANKED_ITEMS" = "$EXH_ITEMS" ] || fail "ranked and exhaustive winners must agree: $RANKED_ITEMS vs $EXH_ITEMS"

echo "== warm replay"
WARM=$(curl -sf -X POST "$BASE/v1/query" -d "$ENUM")
echo "$WARM" | grep -q '"is_replay":true' || fail "second identical query must replay: $WARM"

echo "== batch"
BATCH=$(curl -sf -X POST "$BASE/v1/batch" -d "{\"queries\":[$ENUM,$BESTK]}")
echo "$BATCH" | grep -q '"count":2' || fail "batch must answer both queries: $BATCH"

echo "== traced query returns a span tree that the core parser accepts"
TRACED="{\"graph_id\":\"$GID\",\"query\":{\"task\":{\"type\":\"enumerate\"},\"trace\":true}}"
curl -sf -X POST "$BASE/v1/query" -d "$TRACED" > /tmp/smoke_trace.json
grep -q '"trace"' /tmp/smoke_trace.json || fail "trace:true response must carry a trace"
grep -q '"name":"atom"' /tmp/smoke_trace.json || fail "trace must contain per-atom spans"
if [ -x "$BENCH_CHECK" ]; then
    "$BENCH_CHECK" --parse /tmp/smoke_trace.json || fail "traced response must round-trip through the core JSON parser"
else
    fail "$BENCH_CHECK not found (build bench_check alongside the serve binary)"
fi

echo "== metrics"
curl -sf "$BASE/v1/metrics" > /tmp/smoke_metrics.txt
grep -q '^# TYPE mintri_http_requests_total counter' /tmp/smoke_metrics.txt \
    || fail "metrics must expose typed request counters"
QUERY_REQS=$(awk '$1 == "mintri_http_requests_total{endpoint=\"/v1/query\"}" {print $2}' /tmp/smoke_metrics.txt)
[ -n "$QUERY_REQS" ] || fail "metrics must count /v1/query requests"
awk -v v="$QUERY_REQS" 'BEGIN { exit !(v + 0 >= 4) }' \
    || fail "/v1/query counter must have advanced past the queries above (got $QUERY_REQS)"
REPLAYS=$(awk '$1 == "mintri_engine_replay_hits_total" {print $2}' /tmp/smoke_metrics.txt)
[ -n "$REPLAYS" ] || fail "metrics must expose engine replay hits"
awk -v v="$REPLAYS" 'BEGIN { exit !(v + 0 >= 1) }' \
    || fail "warm replay above must register a replay hit (got $REPLAYS)"
RANKED_QUERIES=$(awk '$1 == "mintri_engine_ranked_queries_total" {print $2}' /tmp/smoke_metrics.txt)
[ -n "$RANKED_QUERIES" ] || fail "metrics must expose the ranked query counter"
awk -v v="$RANKED_QUERIES" 'BEGIN { exit !(v + 0 >= 2) }' \
    || fail "the ranked best-k queries above must register (got $RANKED_QUERIES)"
grep -q 'mintri_engine_ranked_first_result_microseconds' /tmp/smoke_metrics.txt \
    || fail "metrics must expose the ranked first-result histogram"
grep -q 'mintri_http_request_microseconds_bucket' /tmp/smoke_metrics.txt \
    || fail "metrics must expose per-endpoint latency histograms"

echo "== malformed input answers a structured 400"
CODE=$(curl -s -o /tmp/smoke_400.json -w '%{http_code}' -X POST "$BASE/v1/query" -d '{definitely not json')
[ "$CODE" = "400" ] || fail "malformed JSON must answer 400, got $CODE"
grep -q '"error"' /tmp/smoke_400.json || fail "400 body must be structured"
curl -sf "$BASE/healthz" >/dev/null || fail "server must survive malformed input"

echo "== a per-request timeout cancels a long enumeration"
# C16 has millions of minimal triangulations; "timeout_ms":20 must end
# the scan mid-stream with a 200 that says cancelled, and the server
# must still answer afterwards.
C16_EDGES=$(for i in $(seq 0 15); do printf '[%d,%d]' "$i" $(( (i + 1) % 16 )); done | sed 's/\]\[/],[/g')
C16="{\"graph\":{\"nodes\":16,\"edges\":[$C16_EDGES]},\"timeout_ms\":20,\"query\":{\"task\":{\"type\":\"enumerate\"}}}"
CODE=$(curl -s -o /tmp/smoke_timeout.json -w '%{http_code}' -X POST "$BASE/v1/query" -d "$C16")
[ "$CODE" = "200" ] || fail "a timed-out query must answer 200, got $CODE"
grep -q '"cancelled":true' /tmp/smoke_timeout.json \
    || fail "a timed-out query must report cancelled: $(head -c 300 /tmp/smoke_timeout.json)"
curl -sf "$BASE/healthz" >/dev/null || fail "server must answer after a timed-out query"

echo "== stats (sessions and counters, document round-trips the core parser)"
curl -sf "$BASE/v1/stats" > /tmp/smoke_stats.json
STATS=$(cat /tmp/smoke_stats.json)
echo "$STATS" | grep -q '"sessions":' || fail "stats must report sessions"
echo "$STATS" | grep -q '"replay_hits":' || fail "stats must report engine replay hits"
echo "$STATS" | grep -q '"task":"best_k"' \
    || fail "slow-query ring must have captured the best-k request: $STATS"
"$BENCH_CHECK" --parse /tmp/smoke_stats.json \
    || fail "the stats document must round-trip through the core JSON parser"

echo "== clean shutdown"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
kill -0 "$SERVER_PID" 2>/dev/null && fail "server process leaked after shutdown"
trap - EXIT

# ---------------------------------------------------------------------
# Restart leg: warm state must survive a SIGTERM through --store-dir.
# ---------------------------------------------------------------------
STORE_DIR=$(mktemp -d /tmp/mintri-smoke-store.XXXXXX)
cleanup_store() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$STORE_DIR"
}
trap cleanup_store EXIT

wait_up() {
    local up=""
    for _ in $(seq 1 50); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "store server died during startup"
        sleep 0.2
    done
    [ -n "$up" ] || fail "store server never answered /healthz"
}

echo "== boot with --store-dir and warm a query"
"$BIN" serve --addr "$ADDR" --store-dir "$STORE_DIR" &
SERVER_PID=$!
wait_up
GID=$(curl -sf -X POST "$BASE/v1/graphs" -d "$GRAPH" | sed -n 's/.*"graph_id":"\([^"]*\)".*/\1/p')
[ -n "$GID" ] || fail "store upload returned no graph_id"
COLD=$(curl -sf -X POST "$BASE/v1/query" -d "$ENUM")
echo "$COLD" | grep -q '"count":14' || fail "store-backed cold query must work: $COLD"

# SIGTERM does not flush the write-behind queue; wait for the worker to
# publish the snapshots (graph + plan + answers = 3 entries) first.
published=""
for _ in $(seq 1 100); do
    ENTRIES=$(curl -sf "$BASE/v1/metrics" | awk '$1 == "mintri_store_entries" {print $2}')
    if [ -n "$ENTRIES" ] && awk -v v="$ENTRIES" 'BEGIN { exit !(v + 0 >= 3) }'; then
        published=1; break
    fi
    sleep 0.2
done
[ -n "$published" ] || fail "write-behind worker never published 3 store entries (got ${ENTRIES:-none})"

echo "== SIGTERM, then reboot over the same --store-dir"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
"$BIN" serve --addr "$ADDR" --store-dir "$STORE_DIR" &
SERVER_PID=$!
wait_up

# No re-upload: the graph_id itself must survive the restart, and the
# first repeat query must replay from the disk tier with zero Extends.
RESTARTED=$(curl -sf -X POST "$BASE/v1/query" -d "$ENUM") \
    || fail "the uploaded graph_id must survive a restart"
echo "$RESTARTED" | grep -q '"count":14' || fail "restarted replay must be complete: $RESTARTED"
echo "$RESTARTED" | grep -q '"is_replay":true' \
    || fail "first repeat query after a restart must replay from disk: $RESTARTED"
curl -sf "$BASE/v1/metrics" > /tmp/smoke_metrics_restart.txt
STORE_HITS=$(awk '$1 == "mintri_store_hits_total" {print $2}' /tmp/smoke_metrics_restart.txt)
[ -n "$STORE_HITS" ] || fail "metrics must expose store hits"
awk -v v="$STORE_HITS" 'BEGIN { exit !(v + 0 >= 1) }' \
    || fail "the disk replay above must register store hits (got $STORE_HITS)"
grep -q 'mintri_store_hydrate_microseconds' /tmp/smoke_metrics_restart.txt \
    || fail "metrics must expose the hydrate-latency histogram"

echo "== stats with a store (sessions and the store block, document round-trips the core parser)"
curl -sf "$BASE/v1/stats" > /tmp/smoke_stats_store.json
STATS=$(cat /tmp/smoke_stats_store.json)
echo "$STATS" | grep -q '"sessions":' || fail "stats must report sessions: $STATS"
echo "$STATS" | grep -q '"store":{' || fail "stats must carry the store block: $STATS"
echo "$STATS" | grep -q '"spills":' || fail "the store block must report spills: $STATS"
"$BENCH_CHECK" --parse /tmp/smoke_stats_store.json \
    || fail "the store-backed stats document must round-trip through the core JSON parser"

echo "== store shutdown"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
kill -0 "$SERVER_PID" 2>/dev/null && fail "store server leaked after shutdown"
rm -rf "$STORE_DIR"
trap - EXIT

echo "SERVE SMOKE OK"
