#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload grid-20k --seed 1 --seconds 30 --trace 0
# Run it from the root of the checkout. Every build and run output
# stays under .bench_build/ there, and the build never uses the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off PPROF_TMPDIR="$out/pprof"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/trace" "$@"
