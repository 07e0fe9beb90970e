#!/usr/bin/env bash
# Builds the benchmark driver and runs it with the given arguments, from
# the root of the checkout:
#
#   bash bench/run.sh --workload phold_seq --seed 1 --seconds 16 --trace 0
#
# Everything the build writes (the binary, the go build cache, the go
# command's own state) stays under .bench_build/ in the checkout. The first
# build compiles the standard library into that cache; later ones are
# incremental. The go command needs no network: the module has no
# dependency outside this repository.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
env GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -buildvcs=false -o "$build/charmbench" .
exec "$build/charmbench" "$@"
