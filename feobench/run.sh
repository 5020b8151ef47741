#!/usr/bin/env bash
# Builds feo and the benchmark from this checkout, then runs the benchmark.
# Run from the repository root:
#   bash feobench/run.sh --workload coach --seed 1 --seconds 18 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/feo" ./cmd/feo
(cd feobench && go build -o "$out/feobench" .)
exec "$out/feobench" -feo "$out/feo" -work "$out" "$@"
