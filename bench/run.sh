#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from the checkout's
# own source, then run it with the driver's arguments. Everything written —
# Go's build cache and temp files included — stays under .bench_build in the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
go build -C bench -o "$out/bprom-bench" .
exec "$out/bprom-bench" "$@"
