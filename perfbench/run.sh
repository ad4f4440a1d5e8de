#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload join-steady --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and output stays under .bench_build/ in the
# checkout. The build needs the library beside perfbench/, so outside a
# full checkout it fails (exit status 1) before anything runs.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
