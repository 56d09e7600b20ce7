#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's own records (digests, spans) stay under .bench_build/.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
