#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Every
# file the build and the run write (Go build cache, temporary files, the
# binary, reports, traced artifacts) stays under .bench_build/ in the
# repository root, which is also the working directory of the run.
#
#   bash bench/run.sh                  # every workload, untraced
#   bash bench/run.sh -trace out/      # plus the traced, per-layer pass
#   bash bench/run.sh -workload paper-sweep -seed 3 -seconds 10 -trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
	PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
