#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go caches and the binary under
# .bench_build/, traces, results and WAL/snapshot scratch under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/mcbench" .)
exec "$build/mcbench" "$@"
