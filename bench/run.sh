#!/usr/bin/env bash
# Builds pathsep-bench from this checkout and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included, and the go command never reaches
# the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/pathsep-bench" ./cmd/pathsep-bench
exec "$out/pathsep-bench" "$@"
