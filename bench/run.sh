#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it with the given arguments. Everything the Go toolchain writes (build
# cache, module cache) is kept inside .bench_build/ too, so a run touches
# nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/appx-perf" .
cd "$root"
exec "$build/appx-perf" "$@"
