#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload guarded-stream -seed 1 -seconds 30 -trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays in .bench_build/ at the repository root; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/commguard-bench" .
exec "$out/commguard-bench" "$@"
