#!/usr/bin/env bash
# Smoke test for the workload subsystem: build simrankd + simload, boot
# the daemon on a fixture graph, run every scenario preset short-mode,
# and assert the emitted BENCH JSON parses with every SLO field present.
# Used by CI (the JSON is uploaded as an artifact) and runnable locally:
# make workload-smoke [OUT=BENCH_PR8.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_PR8.json}"
DURATION="${DURATION:-3s}"
RATE_SCALE="${RATE_SCALE:-0.3}"

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# Fixture: a 200-node ring with chords, dynamic (mutations enabled).
awk 'BEGIN { n=200; for (i=0; i<n; i++) { print i, (i+1)%n; print i, (i+7)%n; print (i+3)%n, i } }' > "$tmp/g.txt"
go build -o "$tmp/simrankd" ./cmd/simrankd
go build -o "$tmp/simload" ./cmd/simload

"$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 -eps 0.1 2> "$tmp/log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* addr=\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$tmp/log" | head -1)
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "workload smoke: daemon died at startup"; cat "$tmp/log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "workload smoke: daemon never reported its address"; cat "$tmp/log"; exit 1; }

fail() {
  echo "workload smoke: FAIL: $1"
  echo "--- simload ---"; cat "$tmp/simload.log" 2>/dev/null || true
  echo "--- bench json ---"; cat "$OUT" 2>/dev/null || true
  echo "--- daemon log ---"; cat "$tmp/log"
  exit 1
}

"$tmp/simload" -list | grep -q social-feed || fail "-list missing presets"

"$tmp/simload" -target "http://$addr" -scenario all \
  -duration "$DURATION" -rate-scale "$RATE_SCALE" -out "$OUT" \
  2> "$tmp/simload.log" || fail "simload run errored"

# The effective seed must be printed for every scenario (replayability).
[ "$(grep -c 'seed=' "$tmp/simload.log")" -ge 3 ] || fail "effective seed not printed per scenario"

# The BENCH JSON must parse and carry every SLO/report field for all
# three presets. go's encoding/json via simload -validate proved the
# specs; here jq-free grep assertions keep the script dependency-free.
[ -s "$OUT" ] || fail "no BENCH JSON written"
[ "$(grep -c '"scenario":' "$OUT")" -eq 3 ] || fail "want 3 scenario reports"
for field in \
  '"p50_ms"' '"p99_ms"' '"p50_target_ms"' '"p99_target_ms"' \
  '"attainment_pct"' '"attainment_met"' '"attain_target_pct"' \
  '"error_pct"' '"error_budget_met"' '"rate_429"' '"rate_5xx"' \
  '"hit_rate"' '"epoch_advances"' '"engine_queries"' '"throughput_rps"' \
  '"seed"' '"pass"' '"classes"' '"metrics_delta"' '"engine_stage_seconds"'; do
  grep -q "$field" "$OUT" || fail "BENCH JSON missing $field"
done

# fraud-neighbors mutates: at least one scenario must move the epoch.
grep -q '"epoch_advances": [1-9]' "$OUT" || fail "no scenario advanced the epoch"

# The server's latency histograms must be live after the run, on both
# serving paths, beside the adaptive retry-after gauge.
curl -sf "http://$addr/metricsz" > "$tmp/metrics.prom" || fail "metricsz not 200"
grep -q '^simrankd_request_duration_seconds_bucket{.*path="engine"' "$tmp/metrics.prom" \
  || fail "metricsz missing engine-path histogram buckets"
grep -q '^simrankd_request_duration_seconds_bucket{.*path="cache"' "$tmp/metrics.prom" \
  || fail "metricsz missing cache-path histogram buckets"
grep -q '^simrankd_admission_retry_after_seconds ' "$tmp/metrics.prom" \
  || fail "metricsz missing adaptive retry-after"

kill -TERM "$pid"
wait "$pid" || fail "daemon exited nonzero on SIGTERM"
pid=""

echo "workload smoke: OK ($OUT, $(grep -c '"scenario":' "$OUT") scenarios)"
