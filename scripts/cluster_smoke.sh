#!/usr/bin/env bash
# Smoke test for the replicated serving stack: build simrankd + simproxy,
# start a leader, two followers and the proxy on a fixture graph, then
# assert the cluster contract end to end —
#   * the proxy routes reads (cache-affinity) and the repeat query hits;
#   * a mutation through the proxy lands on the leader and every follower
#     converges to the same epoch with byte-identical scores;
#   * SIGTERM-ing a follower drops it from the read set while the proxy
#     stays healthy.
# Used by CI and runnable locally: make cluster-smoke
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  for p in "${pids[@]:-}"; do wait "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

printf '0 1\n0 2\n1 3\n2 4\n3 0\n4 0\n4 2\n2 0\n' > "$tmp/g.txt"
go build -o "$tmp/simrankd" ./cmd/simrankd
go build -o "$tmp/simproxy" ./cmd/simproxy

fail() {
  echo "cluster smoke: FAIL: $1"
  echo "--- response ---"; cat "$tmp/out" 2>/dev/null || true
  for log in "$tmp"/*.log; do echo "--- $log ---"; cat "$log"; done
  exit 1
}

# wait_addr LOGFILE -> echoes the bound 127.0.0.1:port once it appears.
wait_addr() {
  local log=$1 addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.* addr=\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}

"$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 -lead 2> "$tmp/leader.log" &
pids+=($!)
leader=$(wait_addr "$tmp/leader.log") || fail "leader never reported its address"

for i in 1 2; do
  "$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 \
    -follow "http://$leader" 2> "$tmp/follower$i.log" &
  pids+=($!)
done
f1=$(wait_addr "$tmp/follower1.log") || fail "follower 1 never reported its address"
f2=$(wait_addr "$tmp/follower2.log") || fail "follower 2 never reported its address"
follower1_pid=${pids[1]}

"$tmp/simproxy" -addr 127.0.0.1:0 -replicas "$leader,$f1,$f2" \
  -policy hash -probe-interval 200ms 2> "$tmp/proxy.log" &
pids+=($!)
proxy=$(wait_addr "$tmp/proxy.log") || fail "proxy never reported its address"
base="http://$proxy"

code() { curl -s -o "$tmp/out" -w '%{http_code}' "$@"; }

# All three replicas must become routable (followers sync fast on an
# idle leader).
for _ in $(seq 1 100); do
  [ "$(code "$base/healthz")" = 200 ] && grep -q '"routable":3' "$tmp/out" && break
  sleep 0.1
done
grep -q '"routable":3' "$tmp/out" || fail "cluster never reached 3 routable replicas"

# Reads route with cache affinity: the same query lands on the same
# replica and the repeat is a cache hit there.
[ "$(code -D "$tmp/h1" "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "read via proxy not 200"
grep -q '"cache":"computed"' "$tmp/out" || fail "first query did not compute"
[ "$(code -D "$tmp/h2" "$base/v1/single-source?node=0&seed=1")" = 200 ] || fail "repeat read not 200"
grep -q '"cache":"hit"' "$tmp/out" || fail "repeat of an identical query was not a cache hit (affinity broken?)"
via1=$(sed -n 's/^X-Simproxy-Replica: \(.*\)\r$/\1/p' "$tmp/h1")
via2=$(sed -n 's/^X-Simproxy-Replica: \(.*\)\r$/\1/p' "$tmp/h2")
[ -n "$via1" ] && [ "$via1" = "$via2" ] || fail "affinity routing sent the repeat elsewhere ($via1 vs $via2)"

# A mutation through the proxy must land on the leader and commit at a
# fresh epoch.
[ "$(code -D "$tmp/hw" -X POST -d '{"edges":[{"from":1,"to":4},{"from":3,"to":2}]}' "$base/v1/edges")" = 200 ] \
  || fail "write via proxy not 200"
via_write=$(sed -n 's/^X-Simproxy-Replica: \(.*\)\r$/\1/p' "$tmp/hw")
[ "$via_write" = "$leader" ] || fail "write routed to $via_write, want leader $leader"
epoch=$(sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' "$tmp/out")
[ -n "$epoch" ] && [ "$epoch" -ge 2 ] || fail "write did not report a committed epoch"

# Every follower's /healthz must report the write's epoch with lag 0.
for host in "$f1" "$f2"; do
  ok=""
  for _ in $(seq 1 100); do
    if [ "$(code "http://$host/healthz")" = 200 ] \
       && grep -q "\"epoch\":$epoch[,}]" "$tmp/out" \
       && grep -q '"lag":0[,}]' "$tmp/out"; then ok=1; break; fi
    sleep 0.1
  done
  [ -n "$ok" ] || fail "follower $host never converged to epoch $epoch"
done

# Same-epoch scores must be byte-identical on all three replicas (strip
# only the per-replica "cache" field, which legitimately differs).
q="/v1/single-source?node=0&seed=7&dense=1"
for host in "$leader" "$f1" "$f2"; do
  [ "$(code "http://$host$q")" = 200 ] || fail "direct query on $host not 200"
  sed 's/"cache":"[a-z]*",//' "$tmp/out" > "$tmp/scores.$host"
  grep -q "\"epoch\":$epoch" "$tmp/out" || fail "$host answered at a stale epoch"
done
diff "$tmp/scores.$leader" "$tmp/scores.$f1" > /dev/null || fail "follower 1 scores differ from the leader's"
diff "$tmp/scores.$leader" "$tmp/scores.$f2" > /dev/null || fail "follower 2 scores differ from the leader's"

# Kill follower 1: the proxy must drop it from the read set and keep
# serving. (SIGTERM drains: healthz flips 503 first, then the process
# exits — either state must push reads elsewhere.)
kill -TERM "$follower1_pid"
for _ in $(seq 1 100); do
  [ "$(code "$base/healthz")" = 200 ] && grep -q '"routable":2' "$tmp/out" && break
  sleep 0.1
done
grep -q '"routable":2' "$tmp/out" || fail "proxy never noticed the killed follower"

for i in $(seq 0 7); do
  [ "$(code -D "$tmp/hf" "$base/v1/single-source?node=$((i % 5))&seed=2")" = 200 ] || fail "read after failover not 200"
  via=$(sed -n 's/^X-Simproxy-Replica: \(.*\)\r$/\1/p' "$tmp/hf")
  [ "$via" != "$f1" ] || fail "read routed to the killed follower"
done

# The proxy's /metricsz carries one replica_up series per replica, the
# killed follower included.
[ "$(code "$base/metricsz")" = 200 ] || fail "proxy metricsz not 200"
for host in "$leader" "$f1" "$f2"; do
  grep -q "^simproxy_replica_up{replica=\"$host\"} " "$tmp/out" \
    || fail "proxy metricsz has no simproxy_replica_up series for $host"
done

echo "cluster smoke: OK (leader $leader, followers $f1 $f2, proxy $proxy)"
