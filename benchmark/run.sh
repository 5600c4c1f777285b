#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind (Go build cache, the binary) goes under
# .bench_build/ at the root of the checkout; the run itself writes only
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/sinew-benchmark" .
exec "$build/sinew-benchmark" "$@"
