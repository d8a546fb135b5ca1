#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload twin_k8 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, spans
# and the work ledger all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
