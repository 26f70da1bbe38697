#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build, the only
# place it writes) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload pb146-solve --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto
go build -o "$build/nekbench" ./benchmark
exec "$build/nekbench" "$@"
