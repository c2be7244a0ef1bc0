#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pair-semifluid --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout. The last line of standard output is the JSON
# result; the build fails, and the script exits non-zero without a
# result, when the repository's own sources are not beside perfbench/.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -tmp "$out/tmp" -out "$root/.bench_out" "$@"
