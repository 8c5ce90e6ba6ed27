#!/usr/bin/env bash
# What BENCHMARK.json's command runs, from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source and runs it. Everything the Go toolchain
# writes — build cache, temporary files, the binary — stays under
# .bench_build/ in the checkout, so a run reads and writes nothing outside
# it. In a directory without the repository's go.mod and internal/ packages
# the build fails and this exits non-zero without printing a result.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
go build -o "$build/sdx-benchmark" ./benchmark
exec "$build/sdx-benchmark" "$@"
