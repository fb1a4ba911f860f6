#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout; everything a run writes under
# benchmark/out/. Neither is committed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# stdout is the result stream; the compiler's chatter goes to stderr.
go build -C "$here" -buildvcs=false -o "$build/rrr-benchmark" . >&2
cd "$root"
exec "$build/rrr-benchmark" "$@"
