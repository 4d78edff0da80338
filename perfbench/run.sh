#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
#
# Everything it writes (build cache, binary, run scratch) goes under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod PPROF_TMPDIR="$build/pprof"
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
