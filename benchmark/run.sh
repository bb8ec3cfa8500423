#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes (Go build cache, module cache,
# the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/quickr-benchmark" .
cd "$root"
exec "$build/quickr-benchmark" -out benchmark/out "$@"
