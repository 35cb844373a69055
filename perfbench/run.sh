#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --compare results/a results/b
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -buildvcs=false -o "$build/perfbench" .
# Memory the runtime returns to the system stays mapped (MADV_FREE)
# until the kernel needs it, so operations do not pay for faulting the
# same pages in again and the host's page handling stays out of the
# timings.
GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0" exec "$build/perfbench" "$@"
