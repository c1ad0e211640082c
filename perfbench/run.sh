#!/usr/bin/env bash
# Builds simrankd, simproxy and the benchmark driver from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload hot-feed --seed 3 --seconds 20 --trace 0
#
# Everything the run writes (Go build cache, binaries, the generated graph,
# daemon logs) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$out/bin/" ./cmd/simrankd ./cmd/simproxy 1>&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
