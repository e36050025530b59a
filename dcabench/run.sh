#!/usr/bin/env bash
# Builds the dcasim benchmark from source and runs it. Run from the repo
# root; every file the build and the run write stays under .bench_build/.
#
#   bash dcabench/run.sh --workload figures_cold --seed 1 --seconds 30 --trace 0
set -euo pipefail

out="$PWD/.bench_build/dcabench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$out/dcabench" ./dcabench
exec "$out/dcabench" "$@"
