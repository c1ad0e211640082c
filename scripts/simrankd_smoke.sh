#!/usr/bin/env bash
# Smoke test for the simrankd serving daemon: build it, start it on a
# fixture graph, curl every endpoint, assert 200s, assert the second
# identical query is a cache hit, and check graceful SIGTERM shutdown.
# Used by CI and runnable locally: make smoke
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

printf '0 1\n0 2\n1 3\n2 4\n3 0\n4 0\n' > "$tmp/g.txt"
go build -o "$tmp/simrankd" ./cmd/simrankd

"$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 2> "$tmp/log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* addr=\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$tmp/log" | head -1)
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "smoke: daemon died at startup"; cat "$tmp/log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "smoke: daemon never reported its address"; cat "$tmp/log"; exit 1; }
base="http://$addr"

fail() {
  echo "smoke: FAIL: $1"
  echo "--- response ---"; cat "$tmp/out" 2>/dev/null || true
  echo "--- daemon log ---"; cat "$tmp/log"
  exit 1
}
code() { curl -s -o "$tmp/out" -w '%{http_code}' "$@"; }

[ "$(code "$base/healthz")" = 200 ] || fail "healthz not 200"

[ "$(code "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "single-source not 200"
grep -q '"cache":"computed"' "$tmp/out" || fail "first query did not compute"

[ "$(code "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "repeated single-source not 200"
grep -q '"cache":"hit"' "$tmp/out" || fail "second identical query was not a cache hit"

[ "$(code "$base/v1/topk?node=0&k=3")" = 200 ] || fail "topk not 200"
[ "$(code "$base/v1/pair?u=1&v=2")" = 200 ] || fail "pair not 200"
[ "$(code -X POST -d '{"nodes":[0,1],"k":2}' "$base/v1/batch")" = 200 ] || fail "batch not 200"

# Live mutation advances the epoch: the previously cached entry must
# become unreachable and the same query must recompute.
[ "$(code -X POST -d '{"from":4,"to":1}' "$base/v1/edges")" = 200 ] || fail "edge add not 200"
[ "$(code "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "post-mutation query not 200"
grep -q '"cache":"computed"' "$tmp/out" || fail "post-mutation query served a stale cached result"

# The cache hit above must show on the counter surface.
[ "$(code "$base/metricsz")" = 200 ] || fail "metricsz not 200"
awk '$1 == "simrankd_cache_hits_total" && $2 >= 1 { found = 1 } END { exit !found }' "$tmp/out" \
  || fail "metricsz simrankd_cache_hits_total is not >= 1 after a cache hit"

kill -TERM "$pid"
if ! wait "$pid"; then
  fail "daemon exited nonzero on SIGTERM"
fi
pid=""

echo "simrankd smoke: OK ($base)"
