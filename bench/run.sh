#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, span files — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
