#!/usr/bin/env bash
# Builds identctl and the benchmark from source into .bench_build/ (the Go
# caches live there too, so nothing outside the checkout is written), then
# runs the benchmark with the arguments given. Run from the root of a checkout:
#
#	bash bench/run.sh --workload setup_miss --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
# Build output goes to stderr: the last line of stdout is the result.
go build -o "$build/bin/identctl" ./cmd/identctl >&2
go build -C bench -o "$build/bin/identxx-e2e" ./identxx-e2e >&2
exec "$build/bin/identxx-e2e" -identctl "$build/bin/identctl" "$@"
