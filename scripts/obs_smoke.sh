#!/usr/bin/env bash
# Smoke test for the observability surface (docs/observability.md):
#
#  1. request ids echo on success and error responses, and a forced slow
#     query shows up — with its per-stage engine spans — in both the
#     slow-query log and /debug/queries;
#  2. /metricsz on simrankd AND simproxy parses against the Prometheus
#     text exposition grammar (plain grep/awk, no external deps);
#  3. a tracing-disabled simload run still passes end to end and its
#     report carries the /metricsz-scraped metrics_delta block.
#
# Used by CI and runnable locally: make obs-smoke [OUT=report.json]
# (without OUT the report is written to the temp dir and removed at exit).
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${DURATION:-3s}"
RATE_SCALE="${RATE_SCALE:-0.3}"

tmp=$(mktemp -d)
OUT="${OUT:-$tmp/report.json}"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "obs smoke: FAIL: $1"
  echo "--- last response ---"; cat "$tmp/out" 2>/dev/null || true
  echo "--- daemon log ---"; cat "$tmp/d.log" 2>/dev/null || true
  echo "--- proxy log ---"; cat "$tmp/p.log" 2>/dev/null || true
  exit 1
}

wait_addr() {
  local log=$1 addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.* addr=\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}

# validate_prom FILE WHO: line-level Prometheus text-format (0.0.4)
# grammar check. Comment lines must be well-formed HELP/TYPE; sample
# lines must be name[{label="value",...}] number.
validate_prom() {
  local f=$1 who=$2
  [ -s "$f" ] || fail "$who /metricsz is empty"
  if grep '^#' "$f" | grep -Evq '^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+'; then
    grep '^#' "$f" | grep -Ev '^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+' | head -3
    fail "$who /metricsz has malformed comment lines"
  fi
  if grep -v '^#' "$f" | grep -Evq '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*,?\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$'; then
    grep -v '^#' "$f" | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*,?\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$' | head -3
    fail "$who /metricsz has lines outside the exposition grammar"
  fi
  # Every TYPE'd family must use a declared type.
  if grep '^# TYPE' "$f" | awk '$4 != "counter" && $4 != "gauge" && $4 != "histogram" && $4 != "summary" && $4 != "untyped" { exit 1 }'; then :; else
    fail "$who /metricsz declares an unknown metric type"
  fi
}

# Fixture: a 200-node ring with chords (same shape workload_smoke uses),
# big enough that a default-eps query takes well over 1ms.
awk 'BEGIN { n=200; for (i=0; i<n; i++) { print i, (i+1)%n; print i, (i+7)%n; print (i+3)%n, i } }' > "$tmp/g.txt"
go build -o "$tmp/simrankd" ./cmd/simrankd
go build -o "$tmp/simproxy" ./cmd/simproxy
go build -o "$tmp/simload" ./cmd/simload

### Part 1: tracing-enabled daemon — ids, slow-query log, /debug/queries.

"$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 \
  -trace-queries 32 -slow-query-ms 1 2> "$tmp/d.log" &
pids+=($!)
addr=$(wait_addr "$tmp/d.log") || fail "daemon never reported its address"
base="http://$addr"

code() { curl -s -o "$tmp/out" -w '%{http_code}' "$@"; }

# A slow query with an explicit request id: default eps on 200 nodes is
# comfortably over the 1ms slow-query bar.
[ "$(code -D "$tmp/hdr" -H 'X-Request-Id: obs-smoke-slow' \
  "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "single-source not 200"
grep -qi '^X-Request-Id: obs-smoke-slow' "$tmp/hdr" || fail "request id not echoed on success"

# The same id must appear in the slow-query log with engine spans.
grep -q 'msg="slow query"' "$tmp/d.log" || fail "slow query never logged"
grep 'msg="slow query"' "$tmp/d.log" | grep -q 'request_id=obs-smoke-slow' \
  || fail "slow-query log missing the request id"
grep 'msg="slow query"' "$tmp/d.log" | grep -q 'reverse_push' \
  || fail "slow-query log missing engine stage spans"

# ... and in the trace ring, spans and all.
[ "$(code "$base/debug/queries")" = 200 ] || fail "/debug/queries not 200"
grep -q '"enabled":true' "$tmp/out" || fail "trace ring reports disabled"
grep -q '"request_id":"obs-smoke-slow"' "$tmp/out" || fail "/debug/queries missing the traced request"
for span in walk source_push gamma reverse_push snapshot cache; do
  grep -q "\"$span\"" "$tmp/out" || fail "/debug/queries trace missing the $span span"
done

# Error responses carry the id too, in header and body.
[ "$(code -D "$tmp/hdr" -H 'X-Request-Id: obs-smoke-err' \
  "$base/v1/single-source?node=999999")" = 404 ] || fail "out-of-range node not 404"
grep -qi '^X-Request-Id: obs-smoke-err' "$tmp/hdr" || fail "request id not echoed on error"
grep -q '"request_id":"obs-smoke-err"' "$tmp/out" || fail "error body missing request_id"

# Daemon /metricsz: grammar-valid, with the families the dashboards key on.
[ "$(code "$base/metricsz")" = 200 ] || fail "daemon /metricsz not 200"
cp "$tmp/out" "$tmp/d.prom"
validate_prom "$tmp/d.prom" "simrankd"
for fam in simrankd_requests_total simrankd_cache_hits_total \
  simrankd_engine_stage_seconds_total simrankd_admission_waits_total \
  simrankd_request_duration_seconds_bucket; do
  grep -q "^$fam" "$tmp/d.prom" || fail "daemon /metricsz missing $fam"
done
grep -q '^simrankd_engine_stage_seconds_total{stage="reverse_push"} 0*\.[0-9]*[1-9]' "$tmp/d.prom" \
  || grep -q '^simrankd_engine_stage_seconds_total{stage="reverse_push"} [1-9]' "$tmp/d.prom" \
  || fail "daemon /metricsz shows no reverse_push stage time after a computed query"

### Part 2: proxy /metricsz with per-replica series.

"$tmp/simproxy" -addr 127.0.0.1:0 -replicas "$base" 2> "$tmp/p.log" &
pids+=($!)
proxy=$(wait_addr "$tmp/p.log") || fail "proxy never reported its address"

# Ids survive proxying: the proxy stamps, the replica traces it.
[ "$(code -D "$tmp/hdr" -H 'X-Request-Id: obs-smoke-via-proxy' \
  "http://$proxy/v1/topk?node=1&k=3&seed=2")" = 200 ] || fail "proxied topk not 200"
grep -qi '^X-Request-Id: obs-smoke-via-proxy' "$tmp/hdr" || fail "proxy did not echo the request id"
[ "$(code "$base/debug/queries")" = 200 ] || fail "/debug/queries not 200 after proxied query"
grep -q '"request_id":"obs-smoke-via-proxy"' "$tmp/out" \
  || fail "proxied request id never reached the replica's trace ring"

[ "$(code "http://$proxy/metricsz")" = 200 ] || fail "proxy /metricsz not 200"
cp "$tmp/out" "$tmp/p.prom"
validate_prom "$tmp/p.prom" "simproxy"
for fam in simproxy_requests_total simproxy_routable_replicas simproxy_replica_up; do
  grep -q "^$fam" "$tmp/p.prom" || fail "proxy /metricsz missing $fam"
done
grep -q '^simproxy_replica_up{replica="[^"]*"} 1' "$tmp/p.prom" \
  || fail "proxy /metricsz shows no healthy replica"

### Part 3: tracing-disabled SLO run -> $OUT with metrics_delta.

"$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 -eps 0.1 \
  -trace-queries 0 -slow-query-ms 0 2> "$tmp/d2.log" &
pids+=($!)
addr2=$(wait_addr "$tmp/d2.log") || fail "second daemon never reported its address"

"$tmp/simload" -target "http://$addr2" -scenario social-feed \
  -duration "$DURATION" -rate-scale "$RATE_SCALE" -out "$OUT" \
  2> "$tmp/simload.log" || fail "tracing-disabled simload run errored"
[ -s "$OUT" ] || fail "no BENCH JSON written"
for field in '"metrics_delta"' '"engine_stage_seconds"' '"admission_waits"' \
  '"p50_ms"' '"attainment_pct"' '"pass"'; do
  grep -q "$field" "$OUT" || fail "BENCH JSON missing $field"
done
if grep -q '"pass": true' "$OUT"; then
  echo "obs smoke: tracing-disabled SLO verdict: PASS"
else
  # SLO misses on loaded CI runners are a perf signal, not a correctness
  # failure of the observability surface — record, don't flake.
  echo "obs smoke: tracing-disabled SLO verdict: MISS (recorded in $OUT)"
fi

echo "obs smoke: OK (daemon $addr, proxy $proxy, $OUT)"
