#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash bench/run.sh --workload des_point --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary, scratch
# stores and traces all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
