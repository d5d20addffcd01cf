#!/usr/bin/env bash
# run.sh — the benchmark's command (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds reticle-load (and, through it, reticle-serve and reticle-shard)
# from the sources of the checkout it sits in, then runs it with the
# arguments given. Everything it writes stays inside the checkout: the Go
# build cache and the binaries under .bench_build/, run output under
# benchmark/out/. With no arguments it runs all four workloads, untraced
# then traced; see benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$here" build -o "$build/bin/reticle-load" ./reticle-load
exec "$build/bin/reticle-load" -root "$root" "$@"
