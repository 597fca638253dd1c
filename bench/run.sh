#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's .bench_build directory (Go build cache included, so nothing
# is written outside the checkout) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/solidbench" .)
cd "$root"
exec "$build/solidbench" "$@"
